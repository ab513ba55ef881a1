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

from heislab.algebra import _SLICE_ROWS
from heislab.hgroup import (
    Point,
    _check_radius,
    dilate_arrays,
    gauge_arrays,
    gauge_dist_arrays,
    group_mul,
    sample_with_rng,
)
from heislab.hlie import HTypeAlgebra
from heislab.util import Report, format_floats

__all__ = [
    "DistortionReport",
    "cross_ratio_rows",
    "sample_quadruples",
    "estimate_quasimobius",
    "random_center",
    "estimate_qc_ratio",
    "estimate_regularity",
    "identity_map",
    "inversion_map",
    "dilation_map",
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
    raw_pairs: Optional[tuple] = field(default=None, repr=False)


def cross_ratio_rows(dist: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Cross-ratios of quadruple rows; degenerate rows come out as inf/nan."""
    x, y, z, w = quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        return dist[x, y] * dist[z, w] / (dist[x, z] * dist[y, w])


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


def estimate_quasimobius(d_in: np.ndarray, d_out: np.ndarray, samples: int = 100000,
                         seed: int = 0) -> DistortionReport:
    """Best strong-quasimobius constant of the identity map between two metrics.

    Samples quadruples; each is also evaluated with the middle pair swapped,
    which inverts both cross-ratios and guarantees the reported maximum of
    t_out / t_in is at least one.  Degenerate quadruples (zero denominator
    in either matrix) are skipped and counted.  The envelope bins log10 of
    the source cross-ratio and records the worst image cross-ratio per bin.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d_in = np.asarray(d_in, dtype=np.float64)
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_in.shape != d_out.shape or d_in.ndim != 2:
        raise ValueError(f"matrices of shapes {d_in.shape} and {d_out.shape} do not match")
    n = d_in.shape[0]
    rng = np.random.default_rng(seed)
    quads = sample_quadruples(n, samples, rng)
    quads = np.vstack([quads, quads[:, [0, 2, 1, 3]]])
    t_in = cross_ratio_rows(d_in, quads)
    t_out = cross_ratio_rows(d_out, quads)
    good = np.isfinite(t_in) & np.isfinite(t_out) & (t_in > 0.0) & (t_out > 0.0)
    degenerate = int(np.count_nonzero(~good))
    t_in = t_in[good]
    t_out = t_out[good]
    if t_in.size == 0:
        raise ValueError("all sampled quadruples were degenerate")
    ratio = t_out / t_in

    logs = np.log10(t_in)
    edges = np.floor(logs * BINS_PER_DECADE).astype(np.int64)
    envelope = []
    for edge in np.unique(edges):
        mask = edges == edge
        envelope.append({
            "t_low": float(10.0 ** (edge / BINS_PER_DECADE)),
            "t_high": float(10.0 ** ((edge + 1) / BINS_PER_DECADE)),
            "max_t_out": float(np.max(t_out[mask])),
            "max_ratio": float(np.max(ratio[mask])),
        })

    statistics = {
        "strong_constant": float(np.max(ratio)),
        "min_ratio": float(np.min(ratio)),
        "quadruples_used": int(t_in.size),
        "degenerate_skipped": degenerate,
        "envelope": envelope,
    }
    return DistortionReport("quasimobius", samples, seed, statistics,
                            raw_pairs=(t_in, t_out))


def save_ratio_pairs_csv(report: DistortionReport, path) -> None:
    """Raw (source, image) cross-ratio pairs of a quasimobius run."""
    if report.raw_pairs is None:
        raise ValueError("report carries no raw cross-ratio pairs")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # the lines csv.writer would write: float strings need no quoting
        fh.write("t_in,t_out\r\n")
        fh.writelines(f"{a},{b}\r\n" for a, b in zip(*map(format_floats, report.raw_pairs)))


# ---------------------------------------------------------------------------
# point maps for quasiconformality experiments

def identity_map(alg: HTypeAlgebra) -> Callable:
    def apply(v, z):
        return v, z
    return apply


def inversion_map(alg: HTypeAlgebra) -> Callable:
    from heislab.inversion import sigma_arrays

    def apply(v, z):
        return sigma_arrays(alg, v, z)
    return apply


def dilation_map(alg: HTypeAlgebra, t: float) -> Callable:
    def apply(v, z):
        return dilate_arrays(t, v, z)
    return apply


def random_center(alg: HTypeAlgebra, center_gauge: float, seed: int = 0) -> Point:
    """A seeded uniform draw from the unit coordinate box, dilated to ``center_gauge``.

    It draws from the root stream of ``seed``, and :func:`estimate_qc_ratio`
    samples each radius from a child spawned from that seed, so the center
    shares no draws with the radii.
    """
    _check_radius(center_gauge, "center gauge")
    v, z = sample_with_rng(alg, 1, 1.0, np.random.default_rng(seed))
    g = gauge_arrays(alg, v, z)[0]
    if g == 0.0:
        raise ValueError("degenerate random center")
    return Point(*(row[0] for row in dilate_arrays(center_gauge / g, v, z)))


def _annulus_entry(alg: HTypeAlgebra, point_map: Callable, center: Point, image_center,
                   r: float, samples: int, rng: np.random.Generator) -> dict:
    """One radius of :func:`estimate_qc_ratio`: the whole draw, then the
    dilation radii, then the point arrays in slices of ``algebra._SLICE_ROWS``
    rows."""
    v, z = sample_with_rng(alg, samples, 1.0, rng)
    g = np.concatenate([gauge_arrays(alg, v[s:s + _SLICE_ROWS], z[s:s + _SLICE_ROWS])
                        for s in range(0, samples, _SLICE_ROWS)])
    keep = np.flatnonzero(g > 1e-12)
    rho = rng.uniform((1.0 - ANNULUS_WIDTH) * r, (1.0 + ANNULUS_WIDTH) * r, size=keep.size)
    fc_v, fc_z = image_center
    inner_points = outer_points = 0
    sup, inf = np.float64(-np.inf), np.float64(np.inf)
    for start in range(0, keep.size, _SLICE_ROWS):
        rows = keep[start:start + _SLICE_ROWS]
        bv, bz = dilate_arrays(rho[start:start + _SLICE_ROWS] / g[rows], v[rows], z[rows])
        bv, bz = group_mul(alg, np.broadcast_to(center.v, bv.shape),
                           np.broadcast_to(center.z, bz.shape), bv, bz)
        d_in = gauge_dist_arrays(alg, bv, bz,
                                 np.broadcast_to(center.v, bv.shape),
                                 np.broadcast_to(center.z, bz.shape))
        fv, fz = point_map(bv, bz)
        d_out = gauge_dist_arrays(alg, fv, fz,
                                  np.broadcast_to(fc_v[0], fv.shape),
                                  np.broadcast_to(fc_z[0], fz.shape))
        inner = d_in <= r
        count = int(np.count_nonzero(inner))
        inner_points += count
        outer_points += inner.size - count
        # np.maximum/np.minimum, unlike max/min, keep a NaN
        if count:
            sup = np.maximum(sup, np.max(d_out[inner]))
        if count < inner.size:
            inf = np.minimum(inf, np.min(d_out[~inner]))
    entry = {"radius": r, "inner_points": inner_points, "outer_points": outer_points}
    if inner_points == 0 or outer_points == 0:
        entry["ratio"] = None
        entry["insufficient_sampling"] = True
    else:
        entry["ratio"] = float(sup) / float(inf)
        entry["insufficient_sampling"] = False
    return entry


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
    seeds = np.random.SeedSequence(seed).spawn(len(radii))
    per_radius = [_annulus_entry(alg, point_map, center, image_center, r, samples,
                                 np.random.default_rng(chunk_seed))
                  for r, chunk_seed in zip(radii, seeds)]
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
    """Uniform draws from a Euclidean ball (Gaussian direction, radial cdf)."""
    if dim == 0:
        return np.zeros((count, 0))
    direction = rng.standard_normal((count, dim))
    norms = np.maximum(np.linalg.norm(direction, axis=1), 1e-300)
    scale = radius * rng.uniform(0.0, 1.0, size=count) ** (1.0 / dim)
    return direction * (scale / norms)[:, None]


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
    for r, envelope, chunk_seed in zip(radii, envelopes, seeds):
        rng = np.random.default_rng(chunk_seed)
        v = _uniform_ball(rng, samples, alg.dim_v, 2.0 * r)
        z = _uniform_ball(rng, samples, alg.dim_z, r * r)
        hits = int(np.count_nonzero(gauge_arrays(alg, v, z) <= r))
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
