"""Gauge inversion of a Heisenberg-type group and its two-point transport maps.

The inversion acts on nonidentity points by

    sigma(v, z) = ( -(|v|^2/4 * I + J_z)^(-1) v,  -z / N ),   N = gauge(v, z)^4,

where the resolvent is evaluated through the Heisenberg-type identity
``(a I - J_z)(a I + J_z) = (a^2 + |z|^2) I = N I`` (with ``a = |v|^2/4``),
so the horizontal part equals ``-(a I - J_z) v / N``.  The map extends to
the one-point compactification by swapping the identity and infinity.  On
every Heisenberg-type algebra it is an involution with
``gauge(sigma p) = 1 / gauge(p)``.  The exact reciprocity of distances,

    d(sigma p, sigma q) = d(p, q) / (||p|| ||q||),

holds precisely on the algebras satisfying the J^2-condition;
:func:`verify_inversion` measures the worst relative deviation of that
identity over seeded random pairs, so it certifies the identity on the
division-algebra groups and falsifies it on controls such as the truncated
quaternionic algebra.

Conjugating by left translations gives an inversion ``phi_x`` centered at
any point x, and composing two of them around a middle translation yields a
map carrying any admissible quadruple (x, x', y, y') to ``g(x) = x'``,
``g(y) = y'``.  Both act rowwise on :class:`ExtendedPoints`, one quadruple
per row.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from heislab.algebra import _by_slices
from heislab.hlie import DEFAULT_TOL, HTypeAlgebra, _j_cols, check_h_type
from heislab.hgroup import (
    Point,
    _dilate_exp,
    _distance,
    _gauge4,
    _gauge_of,
    _unit_exponent,
    _unit_rows,
    gauge_dist_arrays,
    group_mul,
    sample_with_rng,
)
from heislab.util import Report, _check_tol, _cpu_count, _sampled

__all__ = [
    "ExtendedPoints",
    "InversionReport",
    "TransportReport",
    "WorstPair",
    "sigma_arrays",
    "phi_at",
    "pair_transporter",
    "transport_errors",
    "verify_inversion",
]

def _sigma_formula(alg: HTypeAlgebra, v, z, a, n4) -> tuple[np.ndarray, np.ndarray]:
    """sigma of coordinate-major (dim_v, ...) and (dim_z, ...) rows, given their
    ``hgroup._gauge4`` a and n4, by the plain formula
    ``(-(a v - J_z v) / n4, -z / n4)``, written over v and z, which it returns.
    J_z v is taken before v is overwritten."""
    jv = _j_cols(alg, z, v)
    np.multiply(v, a, out=v)
    np.subtract(v, jv, out=v)
    np.negative(v, out=v)
    np.negative(z, out=z)
    return np.divide(v, n4, out=v), np.divide(z, n4, out=z)


def _sigma(alg: HTypeAlgebra, v, z, a, n4) -> tuple[np.ndarray, np.ndarray]:
    """sigma of coordinate-major rows at every scale, written over v and z,
    which it returns: the rows of ``hgroup._unit_rows``, copied out before
    the formula runs, by sigma(delta_s p) = delta_{1/s} sigma(p).  A row that
    is not finite, or whose image is not, comes out non-finite."""
    unit = _unit_rows(np.moveaxis(v, 0, -1), np.moveaxis(z, 0, -1), n4)
    _sigma_formula(alg, v, z, a, n4)
    if unit is not None:
        redo, uv, uz, k = unit
        ua, un4 = _gauge4(uv.T, uz.T)
        if np.any(un4 == 0.0):
            raise ValueError("inversion is undefined at the identity")
        sv, sz = _dilate_exp(-k, *(c.T for c in _sigma_formula(alg, uv.T, uz.T, ua, un4)))
        v[:, redo], z[:, redo] = sv.T, sz.T
    return v, z


def sigma_arrays(alg: HTypeAlgebra, v: np.ndarray, z: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise gauge inversion of (n, dim) coordinate arrays, at every scale
    (:func:`_sigma`), evaluated coordinate-major in slices by
    ``algebra._by_slices``, whose fresh copies :func:`_sigma` writes over, so
    the caller's arrays are left as they are."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        v_new, z_new = _by_slices(lambda v, z: _sigma(alg, v, z, *_gauge4(v, z)),
                                  [alg.dim_v, alg.dim_z], v, z)
    return v_new, z_new


class ExtendedPoints(NamedTuple):
    """Rows of the one-point extension: coordinates plus a mask of the rows at infinity.

    A row at infinity carries zero coordinates.
    """

    v: np.ndarray
    z: np.ndarray
    inf: np.ndarray


def _dilate(p: ExtendedPoints, k: np.ndarray) -> ExtendedPoints:
    return ExtendedPoints(*_dilate_exp(k, p.v, p.z), p.inf)


def _equal(a: ExtendedPoints, b: ExtendedPoints) -> np.ndarray:
    """Rowwise exact equality on the extension."""
    return (a.inf == b.inf) & np.all(a.v == b.v, axis=1) & np.all(a.z == b.z, axis=1)


def phi_at(alg: HTypeAlgebra, x: ExtendedPoints, w: ExtendedPoints) -> ExtendedPoints:
    """Rowwise image of w under the inversion centered at x, ``l_x . sigma . l_x^{-1}``.

    It swaps x with infinity and is an involution; where x is infinite it
    is the identity.  A point whose shift ``x^{-1} w`` has a gauge^4 of zero
    in floating point goes to infinity with x itself.
    """
    sv, sz = group_mul(alg, -x.v, -x.z, w.v, w.z)
    zero = _gauge4(sv.T, sz.T)[1] == 0.0
    v = np.where(x.inf[:, None], w.v, np.where(w.inf[:, None], x.v, 0.0))
    z = np.where(x.inf[:, None], w.z, np.where(w.inf[:, None], x.z, 0.0))
    inf = np.where(x.inf, w.inf, zero & ~w.inf)
    live = ~(x.inf | w.inf | zero)
    v[live], z[live] = group_mul(alg, x.v[live], x.z[live],
                                 *sigma_arrays(alg, sv[live], sz[live]))
    return ExtendedPoints(v, z, inf)


def _concat(*points: ExtendedPoints) -> ExtendedPoints:
    return ExtendedPoints(*(np.concatenate(parts) for parts in zip(*points)))


def pair_transporter(alg: HTypeAlgebra, x: ExtendedPoints, x_prime: ExtendedPoints,
                     y: ExtendedPoints, y_prime: ExtendedPoints,
                     w: ExtendedPoints) -> ExtendedPoints:
    """Rowwise image of w under a map g of the extension with g(x) = x' and g(y) = y'.

    w holds one or more blocks of rows, each block paired row for row with
    the quadruple; everything that depends only on the quadruple is
    computed once for all blocks.  Requires x' = y' exactly where x = y.
    The map is ``phi_{x'} . l_m . phi_x`` with ``m = phi_{x'}(y') phi_x(y)^{-1}``.
    Where x = y both middle points are infinite, so m has zero coordinates
    and is the identity.  x reaches x' exactly: phi_x sends it to infinity,
    which l_m fixes and phi_{x'} sends to x'.  Rows of w equal to y return
    y' exactly.  There the composite collapses algebraically, and without
    the anchor the fourth-root scaling of the gauge would inflate one
    rounding of a central coordinate into a visible gauge error (7.7e-7 on
    H_O over 1000 seeded trials).

    Each row is composed at unit scale: it is dilated by 2^-k, with k the
    ``hgroup._unit_exponent`` of x, x', y, y', and the image is dilated back.
    Power-of-two dilations are exact, so the targets stay exact.  Far from
    unit scale phi_x and l_m meet at reciprocal scales, and their sums
    round away the central coordinates of w: on H_C:1 the cross-ratio
    deviation of free points reached 1.8e-5 at radius 10 and 1.7e-2 at
    radius 1e-3.
    """
    rows = x.inf.size
    blocks = w.inf.size // max(rows, 1)
    if blocks * rows != w.inf.size:
        raise ValueError(f"w has {w.inf.size} rows, not a whole number of blocks of {rows}")
    k = _unit_exponent(x, x_prime, y, y_prime)
    x, x_prime, y, y_prime = (_dilate(p, -k) for p in (x, x_prime, y, y_prime))
    same = _equal(x, y)
    if np.any(same != _equal(x_prime, y_prime)):
        raise ValueError("degenerate quadruple: x' = y' must hold exactly when x = y")
    fy = phi_at(alg, x, y)
    ly = phi_at(alg, x_prime, y_prime)
    if np.any((fy.inf | ly.inf) & ~same):
        raise ValueError("degenerate quadruple: transported middle point is infinite")
    mv, mz = group_mul(alg, ly.v, ly.z, -fy.v, -fy.z)
    x, x_prime, y, y_prime = (_concat(*[p] * blocks) for p in (x, x_prime, y, y_prime))
    mv, mz, k = (np.concatenate([a] * blocks) for a in (mv, mz, k))
    w = _dilate(w, -k)
    fw = phi_at(alg, x, w)
    tv, tz = group_mul(alg, mv, mz, fw.v, fw.z)
    moved = ExtendedPoints(np.where(fw.inf[:, None], 0.0, tv),
                           np.where(fw.inf[:, None], 0.0, tz), fw.inf)
    image = phi_at(alg, x_prime, moved)
    anchor = _equal(w, y)
    return _dilate(ExtendedPoints(np.where(anchor[:, None], y_prime.v, image.v),
                                  np.where(anchor[:, None], y_prime.z, image.z),
                                  np.where(anchor, y_prime.inf, image.inf)), k)


def _gauge_errors(alg: HTypeAlgebra, image: ExtendedPoints,
                  target: ExtendedPoints) -> np.ndarray:
    """Rowwise gauge distance, infinite where exactly one of the two rows is infinite."""
    return np.where(image.inf | target.inf, np.where(image.inf == target.inf, 0.0, np.inf),
                    gauge_dist_arrays(alg, image.v, image.z, target.v, target.z))


def _gauge_cross_ratios(alg: HTypeAlgebra, p: list[ExtendedPoints]) -> np.ndarray:
    """Rowwise ``d(p1, p2) d(p3, p4) / (d(p1, p3) d(p2, p4))``.

    A distance to a point at infinity counts as 1: each point appears once in
    the numerator and once in the denominator, so the infinite factors cancel.
    """
    def d(a: ExtendedPoints, b: ExtendedPoints) -> np.ndarray:
        return np.where(a.inf | b.inf, 1.0, gauge_dist_arrays(alg, a.v, a.z, b.v, b.z))

    return d(p[0], p[1]) * d(p[2], p[3]) / (d(p[0], p[2]) * d(p[1], p[3]))


def _sweep_chunk(alg: HTypeAlgebra, v: np.ndarray, z: np.ndarray) -> dict[str, tuple]:
    """Per branch, the worst target error and cross-ratio deviation of the
    trials whose eight points are the consecutive rows of (v, z)."""
    count = v.shape[0] // 8
    finite = np.zeros(count, dtype=bool)
    x, xp, y, yp, *free = (ExtendedPoints(v[k::8], z[k::8], finite) for k in range(8))
    infinity = ExtendedPoints(np.zeros_like(x.v), np.zeros_like(x.z), ~finite)
    branches = {"finite": (x, xp, y, yp), "x_infinite": (infinity, xp, y, yp),
                "x_prime_infinite": (x, infinity, y, yp), "x_equals_y": (x, xp, x, xp)}
    worst = {}
    # coincident free points give inf/NaN ratios, which fail the sweep
    with np.errstate(divide="ignore", invalid="ignore"):
        for branch, (bx, bxp, by, byp) in branches.items():
            image = pair_transporter(alg, bx, bxp, by, byp, _concat(bx, by, *free))
            blocks = [ExtendedPoints(*(a[k * count:(k + 1) * count] for a in image))
                      for k in range(6)]
            error = _gauge_errors(alg, _concat(*blocks[:2]), _concat(bxp, byp))
            ratio = _gauge_cross_ratios(alg, blocks[2:]) / _gauge_cross_ratios(alg, free)
            worst[branch] = (np.max(error), np.max(np.abs(ratio - 1.0)))
    return worst


@dataclass
class TransportReport(Report):
    """Outcome of the :func:`transport_errors` sweep of the transporter's case branches."""

    algebra: str
    fingerprint: str
    trials: int
    seed: int
    tolerance: float
    per_branch: dict[str, float]
    max_gauge_error: float
    cross_ratio_per_branch: dict[str, float]
    max_cross_ratio_deviation: float
    passed: bool


def transport_errors(alg: HTypeAlgebra, trials: int, radius: float = 1.0,
                     seed: int = 0, tol: float = DEFAULT_TOL) -> TransportReport:
    """Per case branch of :func:`pair_transporter`, its worst gauge error at the
    targets and its worst cross-ratio deviation at four free points.

    Each trial draws x, x', y, y' and four free points p1..p4 as eight
    consecutive rows of one chunk of ``util._sampled``; the chunks bound the
    memory.  Missing an infinite target counts as an infinite error.  The
    deviation is ``|CR(g p) / CR(p) - 1|`` of the gauge cross-ratio, which a
    1-quasiconformal map of a J^2 group keeps.  The sweep passes when every
    error and every deviation is at most ``tol`` (0 <= tol < inf); a NaN
    deviation fails it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_tol(tol)
    chunks = _sampled(lambda count, rng: _sweep_chunk(
        alg, *sample_with_rng(alg, count, radius, rng)), 8 * trials, seed)
    # np.max, unlike max(), keeps a NaN
    errors = {b: float(np.max([c[b][0] for c in chunks])) for b in chunks[0]}
    deviations = {b: float(np.max([c[b][1] for c in chunks])) for b in chunks[0]}
    worst = float(np.max(list(errors.values())))
    worst_deviation = float(np.max(list(deviations.values())))
    return TransportReport(alg.label, alg.fingerprint, trials, seed, tol, errors, worst,
                           deviations, worst_deviation,
                           worst <= tol and worst_deviation <= tol)


class WorstPair(NamedTuple):
    """The sampled pair with the largest deviation of the identity."""

    p: Point
    q: Point


@dataclass
class InversionReport(Report):
    """Worst-case deviation of d(sigma p, sigma q) * ||p|| ||q|| / d(p, q) from 1."""

    algebra: str
    fingerprint: str
    samples: int
    seed: int
    tolerance: float
    max_relative_deviation: float
    is_exact_inversion: bool
    worst_pair: WorstPair
    pairs_used: int
    kind: str = field(default="inversion", init=False)


def _inversion_chunk(alg: HTypeAlgebra, count: int, radius: float,
                     rng: np.random.Generator) -> tuple:
    """Pairs used, worst deviation, worst row and starting generator of one
    chunk of ``count`` pairs.

    The chunk keeps a copy of ``rng`` as it was before its draws, from which
    :func:`verify_inversion` draws the winning chunk again to read its worst
    row; the row is None when no pair is used.  The chunk draws p, then q,
    each at once by ``sample_with_rng``, and copies each draw to
    coordinate-major arrays before the next, keeping no row-major array.
    The gauge^4 of p and of q serves both their gauges and their sigma
    images, and the distances are taken as in ``hgroup.gauge_dist_arrays``,
    so the bits are those of the public kernels.  Once the gauges and
    d(p, q) are taken, sigma p is written over p and sigma q over q, so a
    point set lives only until its image exists.  Near the top of the
    sampler's range the bracket overflows; its inf or NaN reaches the
    deviation, which the report shows, so the chunk raises no numpy warning.
    """
    start = copy.deepcopy(rng)
    p, q = ([np.ascontiguousarray(a.T) for a in sample_with_rng(alg, count, radius, rng)]
            for _ in range(2))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ap, n4p = _gauge4(*p)
        aq, n4q = _gauge4(*q)
        gp, gq = _gauge_of(*p, n4p), _gauge_of(*q, n4q)
        d_pq = _distance(alg, p, q)
        keep = (gp > 0.0) & (gq > 0.0) & (d_pq > 0.0)
        kept = int(np.count_nonzero(keep))
        if kept == 0:
            return 0, -1.0, None, start
        if kept < count:  # usually every pair is kept, and nothing is copied
            p, q = [a[:, keep] for a in p], [a[:, keep] for a in q]
            ap, n4p, aq, n4q, gp, gq, d_pq = (a[keep] for a in (ap, n4p, aq, n4q, gp, gq, d_pq))
        ratio = (_distance(alg, _sigma(alg, *p, ap, n4p), _sigma(alg, *q, aq, n4q))
                 * gp * gq / d_pq)
        deviation = np.abs(ratio - 1.0)
    worst = int(np.argmax(deviation))
    row = worst if kept == count else int(np.flatnonzero(keep)[worst])
    return kept, float(deviation[worst]), row, start


def verify_inversion(alg: HTypeAlgebra, samples: int = 100000, seed: int = 0,
                     tol: float = DEFAULT_TOL, radius: float = 1.0,
                     threads: int | None = None) -> InversionReport:
    """Measure the 1-inversion identity over seeded random pairs.

    Sampling is split into the seeded chunks of ``util._sampled``, which
    run on ``threads`` forked worker processes where ``os.fork`` exists (by
    default the CPUs this process may use, ``util._cpu_count``), each
    holding one chunk at a time and calling no BLAS.  The worst pair is
    that of the first chunk with the largest deviation, found by
    ``np.argmax`` in chunk order, so the report is identical for every
    worker count.  A NaN deviation does not drop out of that max: the
    first pair whose deviation is NaN is the worst pair, the deviation
    reads NaN and the verdict is inexact.  The chunks keep no draws: each
    returns the pair count that ``util._sampled`` gave it, and the worst
    pair is read from the winning chunk's p and q, drawn again, that many,
    from its starting generator.  The verdict is exact when the deviation
    is within ``tol`` (0 <= tol < inf).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    _check_tol(tol)
    if not check_h_type(alg).is_h_type:
        raise ValueError(f"{alg.label} is not of Heisenberg type; "
                         "the gauge inversion identity is only assessed on H-type algebras")
    counts, used, deviations, rows, starts = zip(*_sampled(
        lambda count, rng: (count, *_inversion_chunk(alg, count, radius, rng)), samples, seed,
        _cpu_count() if threads is None else threads))
    worst = int(np.argmax(deviations))
    if rows[worst] is None:
        raise ValueError("no usable sample pairs were generated")
    count, row, rng = counts[worst], rows[worst], starts[worst]
    p, q = (Point(v[row].copy(), z[row].copy())
            for v, z in (sample_with_rng(alg, count, radius, rng) for _ in range(2)))
    return InversionReport(alg.label, alg.fingerprint, samples, seed, tol, deviations[worst],
                           deviations[worst] <= tol, WorstPair(p, q), sum(used))
