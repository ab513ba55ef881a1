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

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from heislab.util import Report, _check_tol, _cpu_count, _sampled

__all__ = [
    "AlgebraKind",
    "ArithmeticReport",
    "OCTONION_TRIPLES",
    "QUATERNION_TRIPLES",
    "multiplication_tensor",
    "mul_arrays",
    "random_elements",
    "check_arithmetic",
]

OCTONION_TRIPLES = ((1, 2, 4), (1, 3, 7), (1, 5, 6), (2, 3, 5), (2, 6, 7), (3, 4, 6), (4, 5, 7))
QUATERNION_TRIPLES = ((1, 2, 3),)

# Rows per slice of :func:`_by_slices`, which runs the row kernels for
# pairwise_gauge_dist and the chunks of `distort regularity`, `distort qc`,
# `algebra check` and `invert transport`.  Each slice pays a fixed number of
# ufunc calls per structure entry, and holds its temporaries.  At 16,384 rows,
# `group distmat` of 1,000 H_O points took 7 % less CPU, but `distort qc` (H_H:4,
# 100,000 samples) and `invert transport` (H_C:16, 4,000 trials) 17-29 % more, with
# 2-7x the page faults, and check_arithmetic's traced peak rose from 7.5 to 9.3 MiB
# (medians of 4 runs, 2-vCPU VM); so 4,096 stays.
_SLICE_ROWS = 4096


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
def multiplication_tensor(kind: AlgebraKind) -> np.ndarray:
    """Dense structure tensor M with ``(ab)_k = sum_ij a_i b_j M[i,j,k]``: e_0 is
    the unit, e_i e_i = -e_0 and eps gives the other imaginary products."""
    d = kind.dim
    tensor = np.zeros((d, d, d))
    tensor[0] = np.eye(d)
    tensor[:, 0] = np.eye(d)
    imaginary = np.arange(1, d)
    tensor[imaginary, imaginary, 0] = -1.0
    for i, j, k in _TRIPLES[kind]:  # eps_ijk = +1 on the cyclic orbit, antisymmetric
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            tensor[a, b, c], tensor[b, a, c] = 1.0, -1.0
    tensor.setflags(write=False)
    return tensor


def _entries(tensor: np.ndarray) -> tuple[tuple[int, int, int, float], ...]:
    """The nonzero entries (i, j, k, T[i,j,k]) of the bilinear map
    ``out_k = sum_ij a_i b_j T[i,j,k]``, in C order, so that each output sums
    its terms by increasing i, then j."""
    return tuple((int(i), int(j), int(k), float(tensor[i, j, k]))
                 for i, j, k in zip(*np.nonzero(tensor)))


def _entry_kernel(entries, a: np.ndarray, b: np.ndarray, width: int,
                  skew: bool = False) -> np.ndarray:
    """The one bilinear kernel, on coordinate-major arrays: a (a width, ...)
    and b (b width, ...), whose trailing dimensions broadcast; returns
    (width, ...).

    Each entry (i, j, k, c) adds ``c a_i b_j`` to out_k, or with ``skew``
    ``c (a_i b_j - a_j b_i)``, as whole-row ufuncs into an accumulator that
    starts at +0, in the order of the entries.  A coefficient of +-1 is an
    add or a subtract, which rounds as the product by +-1 does, and saves a
    ufunc call per entry.
    """
    lead = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.zeros((width,) + lead)
    term = np.empty(lead)
    other = np.empty(lead) if skew else None
    for i, j, k, c in entries:
        np.multiply(a[i], b[j], out=term)
        if skew:
            np.multiply(a[j], b[i], out=other)
            np.subtract(term, other, out=term)
        acc = out[k, ...]  # a view also when there are no trailing dimensions
        if c == 1.0:
            np.add(acc, term, out=acc)
        elif c == -1.0:
            np.subtract(acc, term, out=acc)
        else:
            np.multiply(term, c, out=term)
            np.add(acc, term, out=acc)
    return out


def _by_slices(kernel, widths, *arrays) -> list[np.ndarray]:
    """Run a coordinate-major kernel on row-major arrays (..., width_i), whose
    leading dimensions broadcast.

    Each slice of about ``_SLICE_ROWS`` rows along the first leading
    dimension (the whole array when there is none) is copied once to
    contiguous (width_i, ...) arrays, and ``kernel(*columns)`` returns one
    array per entry of ``widths``: (width, ...) for an int, (...) for None.
    Returns the row-major results.  Every kernel here computes each row on
    its own, so the slices do not change a bit.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    lead = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
    outs = [np.empty(lead if w is None else lead + (w,)) for w in widths]
    parts = [...]
    if lead:
        step = max(1, _SLICE_ROWS // max(1, math.prod(lead[1:])))
        parts = [slice(start, start + step) for start in range(0, lead[0], step)]
    for rows in parts:
        columns = [np.moveaxis(np.broadcast_to(a, lead + a.shape[-1:])[rows], -1, 0).copy()
                   for a in arrays]
        for out, w, result in zip(outs, widths, kernel(*columns)):
            out[rows] = result if w is None else np.moveaxis(result, 0, -1)
    return outs


@lru_cache(maxsize=None)
def _product_entries(kind: AlgebraKind) -> tuple:
    return _entries(multiplication_tensor(kind))


def mul_arrays(kind: AlgebraKind, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise product of two (n, dim) coefficient arrays, by :func:`_entry_kernel`."""
    entries = _product_entries(kind)
    return _by_slices(lambda a, b: [_entry_kernel(entries, a, b, kind.dim)], [kind.dim],
                      a, b)[0]


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


def _residuals(kind: AlgebraKind, count: int, rng: np.random.Generator) -> tuple:
    """One chunk of :func:`check_arithmetic`: draw ``count`` rows a and b, and
    on an associative kind c, in that order; return the worst composition
    residual of a, b, and the worst associativity residual of a, b, c, or
    on the octonions the worst alternativity residual of a, b."""
    a = random_elements(kind, count, rng)
    b = random_elements(kind, count, rng)
    ab = mul_arrays(kind, a, b)
    scale = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    composition = np.max(np.abs(np.linalg.norm(ab, axis=1) - scale) / scale)
    if kind is AlgebraKind.OCTONION:
        left = mul_arrays(kind, a, ab)
        right = mul_arrays(kind, mul_arrays(kind, a, a), b)
        scale = np.linalg.norm(a, axis=1) ** 2 * np.linalg.norm(b, axis=1)
    else:
        c = random_elements(kind, count, rng)
        left = mul_arrays(kind, ab, c)
        right = mul_arrays(kind, a, mul_arrays(kind, b, c))
        scale = scale * np.linalg.norm(c, axis=1)
    return composition, np.max(np.abs(left - right) / scale[:, None])


def check_arithmetic(kinds, samples: int, seed: int = 0, tol: float = 1e-12) -> ArithmeticReport:
    """Worst relative residuals of the composition law |ab| = |a||b| and of
    associativity (alternativity a(ab) = (aa)b on the octonions), per kind.

    Each kind draws through ``util._sampled``: every chunk of
    ``util._CHUNK`` samples draws its operands from its own child of
    ``seed`` and is reduced to its residuals (:func:`_residuals`), so each
    of the ``util._cpu_count()`` workers holds one chunk of products, and a
    kind's residuals depend only on the kind, ``samples`` and ``seed``.
    The chunk maxima merge by ``np.max``, which keeps a NaN.  A kind passes
    when its composition residual is within ``tol`` (0 <= tol < inf) and
    its other residual within 1e-12.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_tol(tol)
    results = []
    for kind in kinds:
        worst = _sampled(partial(_residuals, kind), samples, seed, _cpu_count())
        composition, residual = (float(np.max(m)) for m in zip(*worst))
        octonion = kind is AlgebraKind.OCTONION
        name = "alternativity_residual" if octonion else "associativity_residual"
        results.append({"kind": kind.value, "composition_residual": composition,
                        name: residual, "passed": composition <= tol and residual <= 1e-12})
    return ArithmeticReport(samples, seed, tol, results)
