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
``g(y) = y'``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from heislab.hlie import HTypeAlgebra, apply_j_rows, check_h_type
from heislab.hgroup import (
    INFINITY,
    ExtendedPoint,
    GroupPoint,
    PointAtInfinity,
    gauge,
    gauge_arrays,
    gauge_dist,
    gauge_dist_arrays,
    group_inv,
    group_mul,
    left_translate,
    point,
    sample_with_rng,
)
from heislab.util import Report

__all__ = [
    "InversionReport",
    "TransportReport",
    "WorstPair",
    "sigma",
    "sigma_arrays",
    "phi_at",
    "pair_transporter",
    "transport_errors",
    "verify_inversion",
]

_CHUNK = 16384


def sigma(p: GroupPoint) -> GroupPoint:
    """The gauge inversion; undefined at the identity."""
    v, z = sigma_arrays(p.algebra, p.v[None, :], p.z[None, :])
    return GroupPoint(p.algebra, v[0], z[0])


def sigma_arrays(alg: HTypeAlgebra, v: np.ndarray, z: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise gauge inversion of (n, dim) coordinate arrays."""
    a = 0.25 * np.sum(v * v, axis=1)
    n4 = a * a + np.sum(z * z, axis=1)
    if np.any(n4 == 0.0):
        raise ValueError("inversion is undefined at the identity")
    jv = apply_j_rows(alg, z, v)
    v_new = -(a[:, None] * v - jv) / n4[:, None]
    z_new = -z / n4[:, None]
    return v_new, z_new


def phi_at(x: GroupPoint) -> Callable[[ExtendedPoint], ExtendedPoint]:
    """The inversion centered at x: ``l_x . sigma . l_x^{-1}`` on the extension.

    Maps x to infinity and infinity to x, and is an involution.
    """
    alg = x.algebra
    x_inv = group_inv(x)

    def apply(w: ExtendedPoint) -> ExtendedPoint:
        if isinstance(w, PointAtInfinity):
            return x
        if np.array_equal(w.v, x.v) and np.array_equal(w.z, x.z):
            return INFINITY
        shifted = group_mul(x_inv, w)
        if gauge(shifted) == 0.0:
            return INFINITY
        return group_mul(x, sigma(shifted))

    return apply


def _identity_map(w: ExtendedPoint) -> ExtendedPoint:
    return w


def _extended_equal(a: ExtendedPoint, b: ExtendedPoint) -> bool:
    a_inf = isinstance(a, PointAtInfinity)
    b_inf = isinstance(b, PointAtInfinity)
    if a_inf or b_inf:
        return a_inf and b_inf
    return np.array_equal(a.v, b.v) and np.array_equal(a.z, b.z)


def _anchored(base: Callable[[ExtendedPoint], ExtendedPoint],
              anchors: list[tuple[ExtendedPoint, ExtendedPoint]]
              ) -> Callable[[ExtendedPoint], ExtendedPoint]:
    """Wrap a map so the defining anchor points hit their images exactly.

    At the anchors the composite collapses algebraically (the same way an
    inversion sends its own center to infinity), so returning the stored
    image is the exact value; the fourth-root scaling of the gauge would
    otherwise inflate even one float rounding of a central coordinate into
    a visible gauge error.  All other inputs go through the numeric map.
    """

    def apply(w: ExtendedPoint) -> ExtendedPoint:
        for source, image in anchors:
            if _extended_equal(w, source):
                return image
        return base(w)

    return apply


def pair_transporter(x: ExtendedPoint, x_prime: ExtendedPoint,
                     y: ExtendedPoint, y_prime: ExtendedPoint
                     ) -> Callable[[ExtendedPoint], ExtendedPoint]:
    """A map g of the one-point extension with g(x) = x' and g(y) = y'.

    Requires x' = y' exactly when x = y.  For x != y the map is
    ``phi_{x'} . l_z . phi_x`` with ``z = phi_{x'}(y') * phi_x(y)^{-1}``,
    where an inversion centered at infinity degenerates to the identity;
    for x = y it is the single translation carrying x to x' (or an
    inversion/identity when one of them is infinite).  The two defining
    points map to their images exactly; see :func:`_anchored`.
    """
    x_eq_y = _extended_equal(x, y)
    xp_eq_yp = _extended_equal(x_prime, y_prime)
    if x_eq_y != xp_eq_yp:
        raise ValueError("degenerate quadruple: x' = y' must hold exactly when x = y")

    if x_eq_y:
        x_inf = isinstance(x, PointAtInfinity)
        xp_inf = isinstance(x_prime, PointAtInfinity)
        if x_inf and xp_inf:
            base = _identity_map
        elif x_inf:
            base = phi_at(x_prime)
        elif xp_inf:
            base = phi_at(x)
        else:
            base = left_translate(group_mul(x_prime, group_inv(x)))
        return _anchored(base, [(x, x_prime)])

    first = _identity_map if isinstance(x, PointAtInfinity) else phi_at(x)
    last = _identity_map if isinstance(x_prime, PointAtInfinity) else phi_at(x_prime)
    fy = first(y)
    ly = last(y_prime)
    if isinstance(fy, PointAtInfinity) or isinstance(ly, PointAtInfinity):
        raise ValueError("degenerate quadruple: transported middle point is infinite")
    middle = left_translate(group_mul(ly, group_inv(fy)))

    def base(w: ExtendedPoint) -> ExtendedPoint:
        return last(middle(first(w)))

    return _anchored(base, [(x, x_prime), (y, y_prime)])


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
    passed: bool


def transport_errors(alg: HTypeAlgebra, trials: int, radius: float = 1.0,
                     seed: int = 0, tol: float = 1e-9) -> TransportReport:
    """Worst gauge error of :func:`pair_transporter` at its targets, per case branch.

    Each trial draws x, x', y, y' in turn from one seeded stream; missing an
    infinite target counts as an infinite error.  The sweep passes when no
    branch's error exceeds ``tol``.
    """
    rng = np.random.default_rng(seed)
    errors = {"finite": 0.0, "x_infinite": 0.0, "x_prime_infinite": 0.0, "x_equals_y": 0.0}

    def draw() -> GroupPoint:
        v, z = sample_with_rng(alg, 1, radius, rng)
        return point(alg, v[0], z[0])

    def record(branch: str, g, *hits) -> None:
        for source, target in hits:
            image = g(source)
            if isinstance(target, PointAtInfinity):
                error = 0.0 if isinstance(image, PointAtInfinity) else float("inf")
            else:
                error = gauge_dist(image, target)
            errors[branch] = max(errors[branch], error)

    for _ in range(trials):
        x, xp, y, yp = draw(), draw(), draw(), draw()
        record("finite", pair_transporter(x, xp, y, yp), (x, xp), (y, yp))
        record("x_infinite", pair_transporter(INFINITY, xp, y, yp), (INFINITY, xp), (y, yp))
        record("x_prime_infinite", pair_transporter(x, INFINITY, y, yp), (x, INFINITY), (y, yp))
        record("x_equals_y", pair_transporter(x, xp, x, xp), (x, xp))
    worst = max(errors.values())
    return TransportReport(alg.label, alg.fingerprint, trials, seed, tol, errors, worst,
                           worst <= tol)


class WorstPair(NamedTuple):
    """The sampled pair with the largest deviation of the identity."""

    p: GroupPoint
    q: GroupPoint


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


def _inversion_chunk(alg: HTypeAlgebra, count: int, radius: float, seed) -> tuple:
    rng = np.random.default_rng(seed)
    vp, zp = sample_with_rng(alg, count, radius, rng)
    vq, zq = sample_with_rng(alg, count, radius, rng)
    gp = gauge_arrays(alg, vp, zp)
    gq = gauge_arrays(alg, vq, zq)
    d_pq = gauge_dist_arrays(alg, vp, zp, vq, zq)
    keep = (gp > 0.0) & (gq > 0.0) & (d_pq > 0.0)
    used = int(np.count_nonzero(keep))
    if used == 0:
        return 0, -1.0, None
    vp, zp, vq, zq = vp[keep], zp[keep], vq[keep], zq[keep]
    sp = sigma_arrays(alg, vp, zp)
    sq = sigma_arrays(alg, vq, zq)
    ratio = gauge_dist_arrays(alg, sp[0], sp[1], sq[0], sq[1]) * gp[keep] * gq[keep] / d_pq[keep]
    deviation = np.abs(ratio - 1.0)
    worst = int(np.argmax(deviation))
    pair = WorstPair(point(alg, vp[worst], zp[worst]), point(alg, vq[worst], zq[worst]))
    return used, float(deviation[worst]), pair


def verify_inversion(alg: HTypeAlgebra, samples: int = 100000, seed: int = 0,
                     tol: float = 1e-9, radius: float = 1.0,
                     threads: int = 1) -> InversionReport:
    """Measure the 1-inversion identity over seeded random pairs.

    Sampling is split into fixed-size chunks with independently derived
    seeds; chunks may be evaluated by a thread pool, and the reduction
    (max deviation, first-chunk tie break) is performed in chunk order so
    the report is identical for every thread count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not check_h_type(alg, samples=256, seed=seed).is_h_type:
        raise ValueError(f"{alg.label} is not of Heisenberg type; "
                         "the gauge inversion identity is only assessed on H-type algebras")
    sizes = [_CHUNK] * (samples // _CHUNK)
    if samples % _CHUNK:
        sizes.append(samples % _CHUNK)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    jobs = list(zip(sizes, seeds))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                lambda job: _inversion_chunk(alg, job[0], radius, job[1]), jobs))
    else:
        results = [_inversion_chunk(alg, size, radius, s) for size, s in jobs]

    used_total = 0
    worst_dev = -1.0
    worst_pair = None
    for used, dev, pair in results:
        used_total += used
        if dev > worst_dev:
            worst_dev = dev
            worst_pair = pair
    if worst_pair is None:
        raise ValueError("no usable sample pairs were generated")
    return InversionReport(alg.label, alg.fingerprint, samples, seed, tol, worst_dev,
                           worst_dev <= tol, worst_pair, used_total)
