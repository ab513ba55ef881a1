"""The simply connected group of a step-two algebra, in exponential coordinates.

A point is a pair ``(v, z)`` of horizontal and central coordinates.  The
group law is the step-two Baker-Campbell-Hausdorff product

    (v, z) (v', z') = (v + v', z + z' + [v, v'] / 2),

with identity (0, 0) and inverse (-v, -z).  The Koranyi gauge

    ||(v, z)|| = (|v|^4 / 16 + |z|^2)^(1/4)

is homogeneous of degree one under the dilations (v, z) -> (t v, t^2 z),
and ``d(p, q) = ||q^{-1} p||`` is a left-invariant distance on every
Heisenberg-type algebra (on other structure tensors it is only a
quasimetric).  The kernels operate rowwise on (..., dim) coordinate arrays;
a report holds a single point as a :class:`Point`, which it writes as
``{v, z}``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from heislab.hlie import HTypeAlgebra, bracket_arrays
from heislab.util import format_floats

__all__ = [
    "Point",
    "sample_arrays",
    "sample_with_rng",
    "group_mul",
    "dilate_arrays",
    "gauge_arrays",
    "gauge_dist_arrays",
    "pairwise_gauge_dist",
    "save_points_csv",
]


class Point(NamedTuple):
    """One group element: its horizontal and central coordinates."""

    v: np.ndarray
    z: np.ndarray


# ---------------------------------------------------------------------------
# kernels on coordinate arrays


def _gauge4(v, z) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise a = |v|^2 / 4 and the gauge's fourth power a^2 + |z|^2."""
    a = 0.25 * np.sum(v * v, axis=-1)
    return a, a * a + np.sum(z * z, axis=-1)


def _unit_exponent(*points) -> np.ndarray:
    """Per row, the integer k with 2^k nearest the largest |v_i| or sqrt|z_k| of
    the points, ``(v, z, ...)`` tuples; 0 on a zero or non-finite row."""
    size = np.max([np.maximum(np.max(np.abs(p[0]), axis=-1, initial=0.0),
                              np.sqrt(np.max(np.abs(p[1]), axis=-1, initial=0.0)))
                   for p in points], axis=0)
    usable = (size > 0.0) & (size < np.inf)
    return np.round(np.log2(np.where(usable, size, 1.0))).astype(np.int64)


def _dilate_exp(k: np.ndarray, v, z) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise dilation by 2^k, exact unless a coordinate leaves the normal floats."""
    return np.ldexp(v, k[..., None]), np.ldexp(z, 2 * k[..., None])


def _unit_rows(v, z, n4):
    """The rows whose gauge^4 ``n4`` is not in [2^-960, 2^960] (zero, under- or
    overflowed, not finite): their mask, the rows dilated by 2^-k to unit
    scale, and k.  None when there is no such row.  Within that range no term
    overflowed and an underflowed one is below 2^-62 gauge^4, so the others
    keep the plain formula's bits."""
    redo = ~((n4 >= 2.0 ** -960) & (n4 <= 2.0 ** 960))
    if not np.any(redo):
        return None
    v, z = (np.broadcast_to(a, redo.shape + a.shape[-1:])[redo] for a in (v, z))
    k = _unit_exponent((v, z))
    return (redo, *_dilate_exp(-k, v, z), k)


def group_mul(alg: HTypeAlgebra, v1, z1, v2, z2) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise product (v1 + v2, z1 + z2 + [v1, v2] / 2); the inverse of (v, z) is (-v, -z)."""
    corr = bracket_arrays(alg, v1, v2)
    return v1 + v2, z1 + z2 + 0.5 * corr


def dilate_arrays(t, v, z) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise dilation; t may be scalar or one factor per row."""
    t = np.asarray(t, dtype=np.float64)
    bad = t[~((t > 0.0) & (t < np.inf))]
    if bad.size:
        raise ValueError(f"dilation factor must be positive and finite, got {bad.flat[0]}")
    if t.ndim == 0:
        return t * v, (t * t) * z
    return t[:, None] * v, (t * t)[:, None] * z


def gauge_arrays(alg: HTypeAlgebra, v, z) -> np.ndarray:
    """Rowwise gauge of (..., dim) coordinate arrays, at every scale: the rows of
    :func:`_unit_rows` by homogeneity, gauge(delta_s p) = s gauge(p)."""
    v, z = np.asarray(v), np.asarray(z)
    with np.errstate(over="ignore"):
        n4 = _gauge4(v, z)[1]
    g = np.asarray(n4 ** 0.25)
    if (unit := _unit_rows(v, z, n4)) is not None:
        redo, uv, uz, k = unit
        g[redo] = np.ldexp(_gauge4(uv, uz)[1] ** 0.25, k)
    return g[()]


def gauge_dist_arrays(alg: HTypeAlgebra, v1, z1, v2, z2) -> np.ndarray:
    """Rowwise gauge distance between two point arrays; leading dimensions broadcast."""
    return gauge_arrays(alg, *group_mul(alg, -v2, -z2, v1, z1))


# Rows per block of pairwise_gauge_dist, which bounds its (rows, n, dim) intermediates.
_PAIR_CHUNK = 256


def pairwise_gauge_dist(alg: HTypeAlgebra, v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Full distance matrix of a point sample; exactly symmetric, zero diagonal.

    Row blocks are evaluated in chunks of ``_PAIR_CHUNK`` to bound memory; the bracket
    kernel is exactly antisymmetric, so d(p, q) = d(q, p) bitwise and the
    diagonal vanishes without post-correction.
    """
    n = v.shape[0]
    out = np.empty((n, n))
    for start in range(0, n, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, n)
        # entry [q, p] = d(p, q)
        out[start:stop] = gauge_dist_arrays(alg, v[None, :, :], z[None, :, :],
                                            v[start:stop, None, :], z[start:stop, None, :])
    return out


# ---------------------------------------------------------------------------
# sampling

_MIN_RADIUS, _MAX_RADIUS = 1e-150, 1e150


def _check_radius(radius: float, name: str = "radius") -> None:
    """Raise unless the value lies in [1e-150, 1e150]: below, r^2 nears the
    float underflow and the central coordinates lose their precision; above
    about 4e153, the bracket of two sampled points, of size r^2, overflows."""
    if not 0.0 < radius < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {radius}")
    if radius > _MAX_RADIUS:
        raise ValueError(f"{name} {radius} is too large: above {_MAX_RADIUS} the central "
                         "coordinates, of size r^2, near the float overflow")
    if radius < _MIN_RADIUS:
        raise ValueError(f"{name} {radius} is too small: below {_MIN_RADIUS} the central "
                         "coordinates, of size r^2, near the float underflow")


def sample_with_rng(alg: HTypeAlgebra, count: int, radius: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draws from the bounding box of the gauge ball of the given radius.

    The box is |v_i| <= 2 r, |z_k| <= r^2 (the tight coordinate box of
    ``gauge <= r``).  Draw order is fixed: all horizontal coordinates first,
    then all central ones.  The radius must lie in [1e-150, 1e150]
    (``_check_radius``).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_radius(radius)
    v = rng.uniform(-2.0 * radius, 2.0 * radius, size=(count, alg.dim_v))
    z = rng.uniform(-radius * radius, radius * radius, size=(count, alg.dim_z))
    return v, z


def sample_arrays(alg: HTypeAlgebra, count: int, radius: float,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    return sample_with_rng(alg, count, radius, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# point-sample files

def _csv_header(alg: HTypeAlgebra) -> list[str]:
    return [f"v_{i + 1}" for i in range(alg.dim_v)] + [f"z_{k + 1}" for k in range(alg.dim_z)]


def save_points_csv(path_or_file, alg: HTypeAlgebra, v: np.ndarray, z: np.ndarray) -> None:
    """Write one point per row with shortest round-trip decimal formatting."""
    rows = np.hstack([v, z]) if alg.dim_z else np.asarray(v, dtype=np.float64)

    def write(fh) -> None:
        fh.write(",".join(_csv_header(alg)) + "\n")
        for row in rows:
            fh.write(",".join(format_floats(row)) + "\n")

    if hasattr(path_or_file, "write"):
        write(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            write(fh)
