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
    """Rowwise gauge of (..., dim) coordinate arrays."""
    a = 0.25 * np.sum(np.asarray(v) ** 2, axis=-1)
    return (a * a + np.sum(np.asarray(z) ** 2, axis=-1)) ** 0.25


def gauge_dist_arrays(alg: HTypeAlgebra, v1, z1, v2, z2) -> np.ndarray:
    """Rowwise gauge distance between two point arrays; leading dimensions broadcast."""
    dv = v1 - v2
    dz = z1 - z2 - 0.5 * bracket_arrays(alg, v2, v1)
    return gauge_arrays(alg, dv, dz)


def pairwise_gauge_dist(alg: HTypeAlgebra, v: np.ndarray, z: np.ndarray,
                        chunk: int = 256) -> np.ndarray:
    """Full distance matrix of a point sample; exactly symmetric, zero diagonal.

    Row blocks are evaluated in fixed chunks to bound memory; the bracket
    kernel is exactly antisymmetric, so d(p, q) = d(q, p) bitwise and the
    diagonal vanishes without post-correction.
    """
    n = v.shape[0]
    out = np.empty((n, n))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        # entry [q, p] = d(p, q)
        out[start:stop] = gauge_dist_arrays(alg, v[None, :, :], z[None, :, :],
                                            v[start:stop, None, :], z[start:stop, None, :])
    return out


# ---------------------------------------------------------------------------
# sampling

_MIN_RADIUS = 1e-150
# The largest gauge the kernels can evaluate: gauge_arrays and sigma_arrays form
# gauge^4 = (|v|^2/4)^2 + |z|^2 in floating point, which must stay finite, so a
# point's gauge must stay below DBL_MAX^(1/4), about 1.16e77.
_MAX_GAUGE = float(np.finfo(np.float64).max) ** 0.25


def _check_radius(radius: float) -> None:
    """Raise unless the radius lies in [1e-150, about 9.5e153]: above, the
    box width 2 r^2 overflows; below about 1.5e-154, r^2 is subnormal and the
    central coordinates lose their precision."""
    if not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if not 2.0 * radius * radius < np.inf:
        raise ValueError(f"radius {radius} is too large: the width 2 r^2 of its "
                         "coordinate box overflows")
    if radius < _MIN_RADIUS:
        raise ValueError(f"radius {radius} is too small: below {_MIN_RADIUS} the central "
                         "coordinates, of size r^2, near the float underflow")


def sample_with_rng(alg: HTypeAlgebra, count: int, radius: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draws from the bounding box of the gauge ball of the given radius.

    The box is |v_i| <= 2 r, |z_k| <= r^2 (the tight coordinate box of
    ``gauge <= r``).  Draw order is fixed: all horizontal coordinates first,
    then all central ones.  The radius must lie in [1e-150, about 9.5e153]
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
