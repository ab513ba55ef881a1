"""Arithmetic in the four real normed division algebras R, C, H and O.

Elements are real coefficient vectors over the canonical basis
``e_0 .. e_{dim-1}``, with ``e_0`` the unit.  Products of imaginary basis
elements are driven by a completely antisymmetric tensor ``eps`` on the
imaginary indices::

    e_i e_j = -delta_ij e_0 + sum_k eps_ijk e_k        (i, j >= 1)

For the octonions ``eps`` is +1 on the cyclic orbits of the seven triples
124, 137, 156, 235, 267, 346, 457 (so e.g. ``e_1 e_2 = e_4``); for the
quaternions the single triple is 123.  This is the unique bilinear unital
extension of those basis rules satisfying the composition law
``|ab| = |a||b|``, which the test suite enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from heislab.util import Report

__all__ = [
    "AlgebraKind",
    "ArithmeticReport",
    "OCTONION_TRIPLES",
    "QUATERNION_TRIPLES",
    "epsilon_tensor",
    "multiplication_tensor",
    "mul_arrays",
    "conj_arrays",
    "random_elements",
    "check_arithmetic",
]

OCTONION_TRIPLES = ((1, 2, 4), (1, 3, 7), (1, 5, 6), (2, 3, 5), (2, 6, 7), (3, 4, 6), (4, 5, 7))
QUATERNION_TRIPLES = ((1, 2, 3),)

# Rows per matrix product in _bilinear_rows, whose intermediate is wider than
# its output.  It bounds peak memory: at 8192 rows `algebra check --samples
# 100000` peaked 9 MB above the einsum this kernel replaced, at 2048 it does
# not, and it runs no slower.
_ROW_BLOCK = 2048
# Rows per slice of the estimators that evaluate a large sample slice by slice
# (the chunks of inversion.verify_inversion, the point arrays of
# distortion.estimate_qc_ratio): two blocks, so the kernels run on the same
# blocks as on the whole sample.  One-block slices ran slower on 2 vCPUs:
# verify_inversion on H_O at 1e6 pairs with 2 threads 1.8 s against 1.2 s,
# estimate_qc_ratio on H_O at 3e5 samples 1.5-2.1 s against 1.4-1.7 s.
_SLICE_ROWS = 2 * _ROW_BLOCK


class AlgebraKind(Enum):
    """One of the four real normed division algebras."""

    REAL = "real"
    COMPLEX = "complex"
    QUATERNION = "quaternion"
    OCTONION = "octonion"

    @property
    def dim(self) -> int:
        return _DIMS[self]

    @property
    def im_dim(self) -> int:
        """Dimension of the imaginary part (0, 1, 3 or 7)."""
        return self.dim - 1


_DIMS = {
    AlgebraKind.REAL: 1,
    AlgebraKind.COMPLEX: 2,
    AlgebraKind.QUATERNION: 4,
    AlgebraKind.OCTONION: 8,
}

_TRIPLES = {
    AlgebraKind.REAL: (),
    AlgebraKind.COMPLEX: (),
    AlgebraKind.QUATERNION: QUATERNION_TRIPLES,
    AlgebraKind.OCTONION: OCTONION_TRIPLES,
}

@lru_cache(maxsize=None)
def epsilon_tensor(kind: AlgebraKind) -> np.ndarray:
    """Antisymmetric structure tensor of the imaginary basis products, read-only
    int8 of shape (im_dim,) * 3: entry ``[i-1, j-1, k-1]`` is eps_ijk."""
    m = kind.im_dim
    eps = np.zeros((m, m, m), dtype=np.int8)
    for i, j, k in _TRIPLES[kind]:
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            eps[a - 1, b - 1, c - 1] = 1
            eps[b - 1, a - 1, c - 1] = -1
    eps.setflags(write=False)
    return eps


@lru_cache(maxsize=None)
def multiplication_tensor(kind: AlgebraKind) -> np.ndarray:
    """Dense structure tensor M with ``(ab)_k = sum_ij a_i b_j M[i,j,k]``: e_0 is
    the unit, e_i e_i = -e_0 and eps gives the other imaginary products."""
    d = kind.dim
    tensor = np.zeros((d, d, d))
    tensor[0] = np.eye(d)
    tensor[:, 0] = np.eye(d)
    imaginary = np.arange(1, d)
    tensor[imaginary, imaginary, 0] = -1.0
    tensor[1:, 1:, 1:] = epsilon_tensor(kind)
    tensor.setflags(write=False)
    return tensor


def _flat_bilinear(tensor: np.ndarray) -> np.ndarray:
    """The read-only matrix M of :func:`_bilinear_rows` for the bilinear map
    ``out_k = sum_ij a_i b_j T[i,j,k]``: ``(b @ M)[i * out_width + k] = sum_j b_j T[i,j,k]``."""
    a_width, b_width, out_width = tensor.shape
    matrix = tensor.transpose(1, 0, 2).reshape(b_width, a_width * out_width)
    matrix.setflags(write=False)
    return matrix


def _bilinear_rows(a: np.ndarray, b: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Rowwise bilinear map of (n, a width) and (n, b width) arrays in which a
    acts linearly on b's space (left multiplication, the J-map), given by
    its :func:`_flat_bilinear` matrix.

    The images of each row of b under every basis direction of a come from
    one matrix product, weighted by a[s, i] and summed, in blocks of
    ``_ROW_BLOCK`` rows that bound the intermediate.  The output width is
    read off b: when a has width 0 (no center) the matrix has no columns.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.empty(b.shape)
    for start in range(0, b.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = b[rows]
        images = (block @ matrix).reshape(block.shape[0], a.shape[1], b.shape[1])
        np.einsum("si,sik->sk", a[rows], images, out=out[rows])
    return out


@lru_cache(maxsize=None)
def _basis_products_matrix(kind: AlgebraKind) -> np.ndarray:
    return _flat_bilinear(multiplication_tensor(kind))


def mul_arrays(kind: AlgebraKind, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise product of two (n, dim) coefficient arrays, by :func:`_bilinear_rows`."""
    return _bilinear_rows(a, b, _basis_products_matrix(kind))


def conj_arrays(kind: AlgebraKind, a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out[:, 1:] *= -1.0
    return out


def random_elements(kind: AlgebraKind, count: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian coefficient rows, one element per row."""
    return rng.standard_normal((count, kind.dim))


@dataclass
class ArithmeticReport(Report):
    """Per-kind residuals of :func:`check_arithmetic`; each result carries ``passed``."""

    samples: int
    seed: int
    tolerance: float
    results: list[dict]

    @property
    def passed(self) -> bool:
        return all(entry["passed"] for entry in self.results)


def check_arithmetic(kinds, samples: int, seed: int = 0, tol: float = 1e-12) -> ArithmeticReport:
    """Worst relative residuals of the composition law |ab| = |a||b| and of
    associativity (alternativity a(ab) = (aa)b on the octonions), per kind.

    One seeded stream serves the kinds in order: each draws a and b, and an
    associative kind then c.  A kind passes when its composition residual is
    within ``tol`` and its other residual within 1e-12.
    """
    rng = np.random.default_rng(seed)
    results = []
    for kind in kinds:
        a = random_elements(kind, samples, rng)
        b = random_elements(kind, samples, rng)
        ab = mul_arrays(kind, a, b)
        scale = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        composition = float(np.max(np.abs(np.linalg.norm(ab, axis=1) - scale) / scale))
        if kind is AlgebraKind.OCTONION:
            name = "alternativity_residual"
            left = mul_arrays(kind, a, mul_arrays(kind, a, b))
            right = mul_arrays(kind, mul_arrays(kind, a, a), b)
            scale = np.linalg.norm(a, axis=1) ** 2 * np.linalg.norm(b, axis=1)
        else:
            name = "associativity_residual"
            c = random_elements(kind, samples, rng)
            left = mul_arrays(kind, ab, c)
            right = mul_arrays(kind, a, mul_arrays(kind, b, c))
            scale = scale * np.linalg.norm(c, axis=1)
        residual = float(np.max(np.abs(left - right) / scale[:, None]))
        results.append({"kind": kind.value, "composition_residual": composition,
                        name: residual, "passed": composition <= tol and residual <= 1e-12})
    return ArithmeticReport(samples, seed, tol, results)
