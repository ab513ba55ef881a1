"""Empirical distortion analysis: cross-ratios, quasimobius constants,
quasiconformality ratios and volume-growth exponents.

The cross-ratio of a quadruple (x, y, z, w) under a distance matrix d is

    d(x, y) d(z, w) / (d(x, z) d(y, w)).

A map between two metrics on the same points is strongly quasimobius with
constant C when image cross-ratios are bounded by C times source
cross-ratios; :func:`estimate_quasimobius` reports the best such C on a
quadruple sample.  :func:`estimate_qc_ratio` estimates the metric
quasiconformality ratio H(x, r) = sup / inf of image distances over an
annulus of shrinking radius, and :func:`estimate_regularity` fits the
volume-growth exponent of gauge balls by Monte-Carlo measure in exponential
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from heislab.hgroup import (
    Point,
    _check_radius,
    _gauge4,
    _gauge_of,
    dilate_arrays,
    gauge_arrays,
    gauge_dist_arrays,
    group_mul,
    sample_with_rng,
)
from heislab.hlie import HTypeAlgebra
from heislab.util import Report, _cpu_count, _sampled, _write_text, format_floats

__all__ = [
    "DistortionReport",
    "cross_ratio_rows",
    "sample_quadruples",
    "estimate_quasimobius",
    "random_center",
    "estimate_qc_ratio",
    "estimate_regularity",
    "save_ratio_pairs_csv",
]

# log10 bins of the source cross-ratio in the quasimobius envelope
BINS_PER_DECADE = 4
# relative half-width of the sampled annulus r (1 +- width) of a qc ratio
ANNULUS_WIDTH = 0.05
# smallest qc radius relative to the center's gauge: on H_C:1 at center gauge 1
# and 2,000 samples, the inversion's ratio, which tends to 1 as the radius
# shrinks, read 0.99996 at radius 1e-6, 1.009 at 1e-7, 6.77 at 1e-8, 766 at 1e-10
RESOLUTION = 2.0 ** -20


@dataclass
class DistortionReport(Report):
    """Container for one distortion experiment; statistics are per kind."""

    kind: str  # quasimobius | quasiconformal | regularity
    samples: int
    seed: int
    statistics: dict
    algebra: Optional[str] = None
    fingerprint: Optional[str] = None
    raw_pairs: Optional[list] = field(default=None, repr=False)


def cross_ratio_rows(dist: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Cross-ratios of N quadruple rows, then those of the same rows with the
    middle pair swapped, ``d(x, z) d(y, w) / (d(x, y) d(z, w))``: 2N values,
    from the same four gathers and with the bits of the swapped rows' own
    cross-ratios.  A degenerate row, or one out of the float range, comes
    out as 0, inf or NaN, with no warning.
    """
    x, y, z, w = quads.T
    d_xy, d_zw, d_xz, d_yw = (np.take(dist, np.ravel_multi_index(pair, dist.shape))
                              for pair in ((x, y), (z, w), (x, z), (y, w)))
    with np.errstate(all="ignore"):  # zero, overflowed and NaN rows are the caller's
        near, far = d_xy * d_zw, d_xz * d_yw
        return np.concatenate([near / far, far / near])


def sample_quadruples(n_points: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of four distinct indices drawn uniformly with rejection."""
    if n_points < 4:
        raise ValueError("need at least four points to form quadruples")
    out = np.empty((count, 4), dtype=np.int64)
    filled = 0
    while filled < count:
        cand = rng.integers(0, n_points, size=(count - filled, 4))
        distinct = (
            (cand[:, 0] != cand[:, 1]) & (cand[:, 0] != cand[:, 2]) &
            (cand[:, 0] != cand[:, 3]) & (cand[:, 1] != cand[:, 2]) &
            (cand[:, 1] != cand[:, 3]) & (cand[:, 2] != cand[:, 3])
        )
        good = cand[distinct]
        out[filled:filled + good.shape[0]] = good
        filled += good.shape[0]
    return out


def _bin_maxima(edges: np.ndarray, t_out: np.ndarray, ratio: np.ndarray) -> tuple:
    """The sorted distinct envelope bins of ``edges``, and a (2, bins) array of
    the max of ``t_out`` and of ``ratio`` in each.  A max does not depend on
    the order of its rows, so the bins of a chunk and those merged from the
    chunks' results hold the bits of the whole sample's."""
    bins, where = np.unique(edges, return_inverse=True)
    maxima = np.full((2, len(bins)), -np.inf)
    np.maximum.at(maxima[0], where, t_out)
    np.maximum.at(maxima[1], where, ratio)
    return bins, maxima


def _quasimobius_chunk(d_in: np.ndarray, d_out: np.ndarray, count: int,
                       rng: np.random.Generator, raw_pairs: bool) -> tuple:
    """One chunk of ``count`` quadruples of :func:`estimate_quasimobius`,
    reduced: its skipped and non-finite counts, its used rows, the max and min
    of its ratios, its envelope bins with their maxima, and with ``raw_pairs``
    its used (t_in, t_out) of the sampled rows and of the middle-swapped rows."""
    quads = sample_quadruples(d_in.shape[0], count, rng)
    t_in = cross_ratio_rows(d_in, quads)
    t_out = cross_ratio_rows(d_out, quads)
    good = np.isfinite(t_in) & np.isfinite(t_out) & (t_in > 0.0) & (t_out > 0.0)
    # a row and its middle-swapped copy share their quadruple and its distances
    skipped = quads[np.flatnonzero(~good) % count]
    zero = np.zeros(len(skipped), dtype=bool)
    for dist in (d_in, d_out):
        for a, b in ((0, 1), (2, 3), (0, 2), (1, 3)):
            zero |= dist[skipped[:, a], skipped[:, b]] == 0.0
    pairs = None
    if raw_pairs:
        pairs = [(t_in[rows][good[rows]], t_out[rows][good[rows]])
                 for rows in (slice(None, count), slice(count, None))]
    t_in = t_in[good]
    t_out = t_out[good]
    ratio = t_out / t_in
    edges = np.floor(np.log10(t_in) * BINS_PER_DECADE).astype(np.int64)
    return (len(skipped), int(np.count_nonzero(~zero)), t_in.size,
            np.max(ratio, initial=-np.inf), np.min(ratio, initial=np.inf),
            _bin_maxima(edges, t_out, ratio), pairs)


def estimate_quasimobius(d_in: np.ndarray, d_out: np.ndarray, samples: int = 100000,
                         seed: int = 0, *, raw_pairs: bool = False) -> DistortionReport:
    """Best strong-quasimobius constant of the identity map between two metrics.

    Samples quadruples; each is also evaluated with the middle pair swapped,
    which inverts both cross-ratios and guarantees the reported maximum of
    t_out / t_in is at least one.  A row whose cross-ratio in either matrix
    is not positive and finite is skipped; ``degenerate_skipped`` counts
    every skipped row, and ``nonfinite_skipped`` those of them with no zero
    among their four distances in either matrix, whose cross-ratio the
    float range (overflow, underflow) or a NaN or infinite entry made zero,
    infinite or NaN.  The envelope bins log10 of the source cross-ratio and
    records the worst image cross-ratio per bin.

    The quadruples are drawn in the chunks of ``util._sampled``, and each
    chunk is reduced to its counts, extremes and envelope bins before the
    next is drawn, so the estimate holds one chunk at a time.  Only with
    ``raw_pairs`` does ``report.raw_pairs`` keep the used (t_in, t_out)
    pairs, 16 B per used row, as a list of per-chunk ``(t_in, t_out)``
    blocks in file order: the sampled rows' block of every chunk, then the
    middle-swapped rows' block of every chunk.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d_in = np.asarray(d_in, dtype=np.float64)
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_in.shape != d_out.shape or d_in.ndim != 2:
        raise ValueError(f"matrices of shapes {d_in.shape} and {d_out.shape} do not match")
    skipped, nonfinite, used, top, bottom, envelopes, pairs = zip(*_sampled(
        lambda count, rng: _quasimobius_chunk(d_in, d_out, count, rng, raw_pairs),
        samples, seed))
    if sum(used) == 0:
        raise ValueError("all sampled quadruples were degenerate")
    edges, maxima = _bin_maxima(np.concatenate([bins for bins, _ in envelopes]),
                                *np.concatenate([chunk for _, chunk in envelopes], axis=1))
    envelope = [{
        "t_low": float(10.0 ** (edge / BINS_PER_DECADE)),
        "t_high": float(10.0 ** ((edge + 1) / BINS_PER_DECADE)),
        "max_t_out": float(max_t_out),
        "max_ratio": float(max_ratio),
    } for edge, max_t_out, max_ratio in zip(edges, *maxima)]

    statistics = {
        "strong_constant": float(max(top)),
        "min_ratio": float(min(bottom)),
        "quadruples_used": sum(used),
        "degenerate_skipped": sum(skipped),
        "nonfinite_skipped": sum(nonfinite),
        "envelope": envelope,
    }
    kept = None
    if raw_pairs:  # the sampled rows of every chunk, then their middle-swapped copies
        sampled, swapped = zip(*pairs)
        kept = [*sampled, *swapped]
    return DistortionReport("quasimobius", samples, seed, statistics, raw_pairs=kept)


def save_ratio_pairs_csv(report: DistortionReport, path_or_file) -> None:
    """Raw (source, image) cross-ratio pairs of a quasimobius run estimated
    with ``raw_pairs``, one line per pair, written one ``report.raw_pairs``
    block (at most ``util._CHUNK`` rows) at a time."""
    if report.raw_pairs is None:
        raise ValueError("report carries no raw cross-ratio pairs")

    def write(fh) -> None:
        # the lines csv.writer would write: float strings need no quoting
        fh.write("t_in,t_out\r\n")
        for t_in, t_out in report.raw_pairs:
            fh.writelines(f"{a},{b}\r\n"
                          for a, b in zip(format_floats(t_in), format_floats(t_out)))

    _write_text(path_or_file, write)


def random_center(alg: HTypeAlgebra, center_gauge: float, seed: int = 0) -> Point:
    """A seeded uniform draw from the unit coordinate box, dilated to ``center_gauge``.

    It draws from the root stream of ``seed``, and :func:`estimate_qc_ratio`
    samples each radius from the chunks of a child spawned from that seed, so
    the center shares no draws with the radii.
    """
    _check_radius(center_gauge, "center gauge")
    v, z = sample_with_rng(alg, 1, 1.0, np.random.default_rng(seed))
    g = gauge_arrays(alg, v, z)[0]
    if g == 0.0:
        raise ValueError("degenerate random center")
    return Point(*(row[0] for row in dilate_arrays(center_gauge / g, v, z)))


def _annulus_chunk(alg: HTypeAlgebra, point_map: Callable, center: Point, image_center,
                   r: float, count: int, rng: np.random.Generator) -> tuple:
    """Inner and outer point counts, and the sup over the inner and the inf
    over the outer image distances, of one chunk of ``count`` annulus draws
    of :func:`estimate_qc_ratio` at radius r; -inf and inf for an empty half."""
    v, z = sample_with_rng(alg, count, 1.0, rng)
    g = gauge_arrays(alg, v, z)
    keep = g > 1e-12
    rho = rng.uniform((1.0 - ANNULUS_WIDTH) * r, (1.0 + ANNULUS_WIDTH) * r,
                      size=int(np.count_nonzero(keep)))
    bv, bz = dilate_arrays(rho / g[keep], v[keep], z[keep])
    cv, cz = np.broadcast_to(center.v, bv.shape), np.broadcast_to(center.z, bz.shape)
    bv, bz = group_mul(alg, cv, cz, bv, bz)
    d_in = gauge_dist_arrays(alg, bv, bz, cv, cz)
    fv, fz = point_map(bv, bz)
    fc_v, fc_z = image_center
    d_out = gauge_dist_arrays(alg, fv, fz, np.broadcast_to(fc_v[0], fv.shape),
                              np.broadcast_to(fc_z[0], fz.shape))
    inner = d_in <= r
    inner_points = int(np.count_nonzero(inner))
    # np.max/np.min, unlike max/min, keep a NaN
    return (inner_points, inner.size - inner_points, np.max(d_out[inner], initial=-np.inf),
            np.min(d_out[~inner], initial=np.inf))


def estimate_qc_ratio(alg: HTypeAlgebra, point_map: Callable, center: Point,
                      radii, samples: int = 20000, seed: int = 0) -> DistortionReport:
    """Monte-Carlo metric quasiconformality ratios of a self-map at one point.

    For each radius r, sample points in the gauge annulus r (1 +- ANNULUS_WIDTH)
    around the center (box directions rescaled by dilation), then report
    sup of image distances over the inner half against inf over the outer
    half.  A radius with an empty half is flagged as insufficient.  Each
    radius must lie in the sampler's range (``hgroup._check_radius``), where
    the kernels evaluate the annulus at any scale, and be at least
    ``RESOLUTION`` times the center's gauge: the annulus points are products
    with the center, and smaller offsets round away against it.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("need at least one radius")
    for r in radii:
        _check_radius(r)
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    floor = RESOLUTION * float(gauge_arrays(alg, center.v, center.z))
    if radii[-1] < floor:
        raise ValueError(f"radius {radii[-1]} is below the resolution {floor:.6g} of the center: "
                         "radii must be at least 2^-20 times its gauge")
    image_center = point_map(center.v[None, :], center.z[None, :])
    per_radius = []
    for r, radius_seed in zip(radii, np.random.SeedSequence(seed).spawn(len(radii))):
        inner, outer, sup, inf = zip(*_sampled(lambda count, rng: _annulus_chunk(
            alg, point_map, center, image_center, r, count, rng), samples, radius_seed))
        entry = {"radius": r, "inner_points": sum(inner), "outer_points": sum(outer)}
        if entry["inner_points"] == 0 or entry["outer_points"] == 0:
            entry["ratio"] = None
            entry["insufficient_sampling"] = True
        else:
            entry["ratio"] = float(np.max(sup)) / float(np.min(inf))
            entry["insufficient_sampling"] = False
        per_radius.append(entry)
    statistics = {"per_radius": per_radius, "center": center, "annulus_width": ANNULUS_WIDTH}
    return DistortionReport("quasiconformal", samples, seed, statistics,
                            algebra=alg.label, fingerprint=alg.fingerprint)


def _envelope_volume(alg: HTypeAlgebra, r: float, samples: int) -> float:
    """Volume of the envelope |v| <= 2r, |z| <= r^2, about r^Q; raise unless every
    estimate ``envelope * hits / samples`` (1 <= hits <= samples) is a positive
    finite float."""
    from math import gamma, pi
    envelope = 1.0
    for dim, radius in ((alg.dim_v, 2.0 * r), (alg.dim_z, r * r)):
        try:
            envelope *= pi ** (dim / 2.0) * radius ** dim / gamma(dim / 2.0 + 1.0)
        except OverflowError:  # from the float power; a float product gives inf
            envelope = np.inf
    if not (envelope / samples > 0.0 and envelope * samples < np.inf):
        raise ValueError(f"radius {r} is out of range: the volume of its sampling envelope, "
                         f"about r^{alg.homogeneous_dimension}, leaves the float range")
    return envelope


def _uniform_ball(rng: np.random.Generator, count: int, dim: int,
                  radius: float) -> np.ndarray:
    """Uniform draws from a Euclidean ball (Gaussian direction, radial cdf) as (dim, count)."""
    if dim == 0:
        return np.zeros((0, count))
    direction = rng.standard_normal((count, dim))
    norms = np.maximum(np.linalg.norm(direction, axis=1), 1e-300)
    scale = radius * rng.uniform(0.0, 1.0, size=count) ** (1.0 / dim)
    return np.multiply(direction.T, scale / norms, order="C")


def _ball_hits(alg: HTypeAlgebra, r: float, count: int, rng: np.random.Generator) -> int:
    """How many of ``count`` uniform draws from the envelope of radius r of
    :func:`estimate_regularity` fall in the gauge ball of radius r, by the private
    kernels of ``gauge_arrays`` (its bits): a worker calls no public function."""
    v = _uniform_ball(rng, count, alg.dim_v, 2.0 * r)
    z = _uniform_ball(rng, count, alg.dim_z, r * r)
    return int(np.count_nonzero(_gauge_of(v, z, _gauge4(v, z)[1]) <= r))


def estimate_regularity(alg: HTypeAlgebra, radii, samples: int = 100000,
                        seed: int = 0) -> DistortionReport:
    """Least-squares volume-growth exponent of gauge balls.

    Per radius, the ball measure is estimated by uniform sampling of a
    known-volume envelope (Lebesgue measure is the Haar measure in these
    coordinates); the fitted slope of log-measure against log-radius is the
    growth exponent, which for the gauge equals dim_v + 2 dim_z.  The
    envelope is the product of the Euclidean balls |v| <= 2r and
    |z| <= r^2, the tight ball-shaped hull of the gauge ball; it wastes far
    fewer samples than the coordinate box in high dimension.  The radii
    must span at least one decade, each in ``hgroup._check_radius``'s range.
    The chunks run on ``util._cpu_count()`` forked worker processes where
    ``os.fork`` exists, each chunk with a stream of its own and no BLAS call,
    so the report does not depend on how many.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    radii = sorted(float(r) for r in radii)
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    for r in radii:
        _check_radius(r)
    if radii[-1] / radii[0] < 10.0:
        raise ValueError("radii must span at least one decade")
    envelopes = [_envelope_volume(alg, r, samples) for r in radii]
    seeds = np.random.SeedSequence(seed).spawn(len(radii))
    volumes = []
    per_radius = []
    for r, envelope, radius_seed in zip(radii, envelopes, seeds):
        hits = sum(_sampled(lambda count, rng: _ball_hits(alg, r, count, rng),
                            samples, radius_seed, _cpu_count()))
        if hits == 0:
            raise ValueError(f"no hits at radius {r}: fit would be degenerate; "
                             "raise the sample count")
        volume = envelope * hits / samples
        volumes.append(volume)
        per_radius.append({"radius": r, "hits": hits, "volume": volume})
    logs_r = np.log(radii)
    logs_v = np.log(volumes)
    design = np.vstack([logs_r, np.ones_like(logs_r)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, logs_v, rcond=None)
    residual = float(np.max(np.abs(design @ np.array([slope, intercept]) - logs_v)))
    statistics = {
        "fitted_exponent": float(slope),
        "fit_residual": residual,
        "homogeneous_dimension": alg.homogeneous_dimension,
        "per_radius": per_radius,
    }
    return DistortionReport("regularity", samples, seed, statistics,
                            algebra=alg.label, fingerprint=alg.fingerprint)
