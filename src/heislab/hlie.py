"""Step-two stratified Lie algebras with inner products and J-map machinery.

An algebra lives on ``v (+) z`` with orthonormal coordinates on both layers
and is stored as the structure tensor ``B`` of the bracket,
``[X, Y]_k = sum_ij B[k,i,j] X_i Y_j``, antisymmetric in (i, j).  The map
``J_Z`` on the horizontal layer is defined by ``<J_Z X, Y> = <Z, [X, Y]>``
and comes out in coordinates as ``(J_Z)_{ji} = sum_k Z_k B[k,i,j]``.

An algebra is of Heisenberg type when ``|J_Z X| = |Z||X|`` for all X, Z
(equivalently ``J_Z^2 = -|Z|^2 I``).  A Heisenberg-type algebra satisfies
the J^2-condition when for every X and every orthogonal pair Z, Z' in the
center, ``J_Z J_{Z'} X`` again lies in the span of ``{J_W X : W in z}``.
Both conditions are checked numerically here, with exact basis sweeps plus
seeded random sampling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from heislab import algebra as _algebra
from heislab.algebra import AlgebraKind
from heislab.util import Report, fingerprint_of_arrays

__all__ = [
    "HTypeAlgebra",
    "HTypeReport",
    "J2Report",
    "J2Witness",
    "bracket_arrays",
    "apply_j_rows",
    "check_h_type",
    "check_j2",
    "make_heisenberg",
    "make_truncated_quaternionic",
    "make_degenerate_direct_sum",
    "algebra_from_name",
    "builtin_names",
    "load_algebra_spec",
]

DEFAULT_TOL = 1e-9

_KIND_LETTER = {
    AlgebraKind.REAL: "R",
    AlgebraKind.COMPLEX: "C",
    AlgebraKind.QUATERNION: "H",
    AlgebraKind.OCTONION: "O",
}


@dataclass(frozen=True)
class HTypeAlgebra:
    """A step-two stratified algebra given by its bracket structure tensor."""

    label: str
    dim_v: int
    dim_z: int
    structure: np.ndarray  # shape (dim_z, dim_v, dim_v)

    def __post_init__(self) -> None:
        if self.dim_v < 1 or self.dim_z < 0:
            raise ValueError(f"invalid dimensions dim_v={self.dim_v}, dim_z={self.dim_z}")
        tensor = np.asarray(self.structure, dtype=np.float64).copy()
        expected = (self.dim_z, self.dim_v, self.dim_v)
        if tensor.shape != expected:
            raise ValueError(f"structure tensor shape {tensor.shape} does not match {expected}")
        if not np.all(np.isfinite(tensor)):
            raise ValueError("structure tensor entries must be finite")
        if not np.array_equal(tensor, -tensor.transpose(0, 2, 1)):
            raise ValueError("structure tensor must be antisymmetric in the horizontal indices")
        tensor.setflags(write=False)
        object.__setattr__(self, "structure", tensor)

    @cached_property
    def j_stack(self) -> np.ndarray:
        """Matrices of J over the orthonormal center basis: ``j_stack[k] = J_{Z_k}``."""
        stack = self.structure.transpose(0, 2, 1).copy()
        stack.setflags(write=False)
        return stack

    @cached_property
    def _j_columns(self) -> np.ndarray:
        """The structure tensor as a (dim_v, dim_z * dim_v) matrix M, so that
        ``(x @ M)[k * dim_v + j] = (J_{Z_k} x)_j``."""
        matrix = self.structure.transpose(1, 0, 2).reshape(self.dim_v, self.dim_z * self.dim_v)
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def _bracket_slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Strictly-upper structure entries as (slots, dim_z) arrays i, j, coeff.

        Slot p holds, for each center direction k, its p-th entry in (i, j)
        order; directions with fewer entries are padded with coefficient 0.
        """
        k, i, j = np.nonzero(self.structure)
        keep = i < j
        k, i, j = k[keep], i[keep], j[keep]
        slot = np.arange(k.size) - np.searchsorted(k, k)  # rank within direction k
        shape = (int(slot.max(initial=-1)) + 1, self.dim_z)
        first, second = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
        coeff = np.zeros(shape)
        first[slot, k], second[slot, k], coeff[slot, k] = i, j, self.structure[k, i, j]
        return first, second, coeff

    @cached_property
    def fingerprint(self) -> str:
        """Hash of the structure constants (label-independent), for report replay."""
        dims = np.array([self.dim_v, self.dim_z], dtype=np.int64)
        return fingerprint_of_arrays(dims, self.structure)

    @property
    def homogeneous_dimension(self) -> int:
        return self.dim_v + 2 * self.dim_z

    def __repr__(self) -> str:
        return f"HTypeAlgebra({self.label!r}, dim_v={self.dim_v}, dim_z={self.dim_z})"


def bracket_arrays(alg: HTypeAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rowwise bracket of two (..., dim_v) arrays; returns (..., dim_z).

    Leading dimensions broadcast, so ``x[:, None]`` against ``y[None]``
    gives the bracket of every pair of rows.

    Evaluated as ``sum B[k,i,j] (x_i y_j - x_j y_i)`` over the strictly-upper
    structure entries, which keeps the bracket exactly antisymmetric in
    floating point: [x, x] = 0 and [x, y] = -[y, x] bitwise, so gauge
    distances vanish on, and are symmetric across, coincident points.  The
    entries of each center direction are summed in one fixed order, so a
    row's bracket does not depend on how many rows share the call; a BLAS
    product against a coefficient matrix does not guarantee that (its
    one-row path reorders sums of three or more terms).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    i, j, coeff = alg._bracket_slots
    terms = coeff * (x[..., i] * y[..., j] - x[..., j] * y[..., i])  # (..., slots, dim_z)
    out = np.zeros(terms.shape[:-2] + (alg.dim_z,))
    for slot in range(terms.shape[-2]):
        out += terms[..., slot, :]
    return out


def _j_images(alg: HTypeAlgebra, x_rows: np.ndarray) -> np.ndarray:
    """``J_{Z_k} x_rows[s]`` for every row s and center basis vector Z_k;
    returns (n, dim_z, dim_v)."""
    return (x_rows @ alg._j_columns).reshape(x_rows.shape[0], alg.dim_z, alg.dim_v)


def apply_j_rows(alg: HTypeAlgebra, z_rows: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
    """Rowwise J_{z_rows[s]} x_rows[s]; returns (n, dim_v).

    The images under every J_{Z_k} come from one matrix product, weighted
    by z_rows[s, k] and summed.  Rows run in blocks of a fixed size, which
    bounds the (rows, dim_z * dim_v) intermediate.
    """
    z_rows = np.asarray(z_rows, dtype=np.float64)
    x_rows = np.asarray(x_rows, dtype=np.float64)
    out = np.empty(x_rows.shape)
    for start in range(0, x_rows.shape[0], _algebra._ROW_BLOCK):
        rows = slice(start, start + _algebra._ROW_BLOCK)
        np.einsum("sk,skj->sj", z_rows[rows], _j_images(alg, x_rows[rows]), out=out[rows])
    return out


def _unit_rows(rng: np.random.Generator, count: int, dim: int, floor: float = 1e-8) -> np.ndarray:
    out = np.empty((count, dim))
    filled = 0
    while filled < count:
        cand = rng.standard_normal((count - filled, dim))
        norms = np.linalg.norm(cand, axis=1)
        ok = norms > floor
        good = cand[ok] / norms[ok][:, None]
        out[filled:filled + good.shape[0]] = good
        filled += good.shape[0]
    return out


def _orthonormal_pairs(rng: np.random.Generator, count: int, dim: int,
                       floor: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise orthonormal pairs via Gram-Schmidt, resampling degenerate draws."""
    first = _unit_rows(rng, count, dim, floor)
    second = np.empty_like(first)
    need = np.arange(count)
    while need.size:
        cand = rng.standard_normal((need.size, dim))
        cand -= np.sum(cand * first[need], axis=1, keepdims=True) * first[need]
        norms = np.linalg.norm(cand, axis=1)
        ok = norms > floor
        rows = need[ok]
        second[rows] = cand[ok] / norms[ok][:, None]
        need = need[~ok]
    return first, second


@dataclass
class HTypeReport(Report):
    """Outcome of the |J_Z X| = |Z||X| certification."""

    algebra: str
    fingerprint: str
    is_h_type: bool
    max_residual: float
    samples: int
    tolerance: float
    seed: int
    kind: str = field(default="h_type", init=False)


class J2Witness(NamedTuple):
    """Unit rows x, z, z' whose ``J_z J_z' x`` lies farthest from span{J_W x}."""

    x: np.ndarray
    z: np.ndarray
    z_prime: np.ndarray


@dataclass
class J2Report(Report):
    """Outcome of the J^2-condition certification."""

    algebra: str
    fingerprint: str
    satisfies_j2: bool
    max_residual: float
    witness: Optional[J2Witness]
    samples: int
    tolerance: float
    seed: int
    kind: str = field(default="j2", init=False)


def check_h_type(alg: HTypeAlgebra, samples: int = 2000, tol: float = DEFAULT_TOL,
                 seed: int = 0) -> HTypeReport:
    """Certify |J_Z X|^2 = |Z|^2 |X|^2 over a basis sweep plus random samples.

    The residual is relative, ``||J_Z X|^2 - |Z|^2|X|^2| / (|Z|^2|X|^2)``.
    The basis sweep also checks the operator identity J_Z^2 + |Z|^2 I = 0
    for each basis Z.  With an empty center the condition holds vacuously.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if alg.dim_z == 0:
        return HTypeReport(alg.label, alg.fingerprint, True, 0.0, samples, tol, seed)

    worst = 0.0
    eye = np.eye(alg.dim_v)
    for jk in alg.j_stack:
        col_sq = np.sum(jk * jk, axis=0)  # |J_{Z_k} e_i|^2, target 1
        worst = max(worst, float(np.max(np.abs(col_sq - 1.0))))
        worst = max(worst, float(np.max(np.abs(jk @ jk + eye))))

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, alg.dim_v))
    z = rng.standard_normal((samples, alg.dim_z))
    x_sq = np.sum(x * x, axis=1)
    z_sq = np.sum(z * z, axis=1)
    keep = (x_sq > 1e-16) & (z_sq > 1e-16)
    jx = apply_j_rows(alg, z[keep], x[keep])
    target = z_sq[keep] * x_sq[keep]
    residual = np.abs(np.sum(jx * jx, axis=1) - target) / target
    if residual.size:
        worst = max(worst, float(np.max(residual)))
    return HTypeReport(alg.label, alg.fingerprint, worst <= tol, worst, samples, tol, seed)


def _j2_residuals(alg: HTypeAlgebra, x: np.ndarray, z: np.ndarray,
                  zp: np.ndarray) -> np.ndarray:
    """Distance of J_z J_z' x from span{J_{Z_k} x}, for unit rows x, z, z'."""
    inner = apply_j_rows(alg, zp, x)
    target = apply_j_rows(alg, z, inner)
    generators = _j_images(alg, x)
    gram = np.einsum("skv,slv->skl", generators, generators)
    rhs = np.einsum("skv,sv->sk", generators, target)
    coeff = np.linalg.solve(gram, rhs[..., None])[..., 0]
    projection = np.einsum("skv,sk->sv", generators, coeff)
    return np.linalg.norm(target - projection, axis=1)


def check_j2(alg: HTypeAlgebra, samples: int = 2000, tol: float = DEFAULT_TOL,
             seed: int = 0) -> J2Report:
    """Certify the J^2-condition over a basis sweep plus random samples.

    Residuals are Euclidean distances of ``J_Z J_{Z'} X`` from the span of
    ``{J_{Z_k} X}``, normalized by |Z||Z'||X| (all sampled at norm one).
    Requires the algebra to pass the Heisenberg-type check first; a center
    of dimension 0 or 1 satisfies the condition vacuously.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    precheck = check_h_type(alg, samples=min(samples, 512), tol=tol, seed=seed)
    if not precheck.is_h_type:
        raise ValueError(
            f"{alg.label} is not of Heisenberg type "
            f"(residual {precheck.max_residual:.3e}); the J^2 check does not apply"
        )
    if alg.dim_z <= 1:
        return J2Report(alg.label, alg.fingerprint, True, 0.0, None, samples, tol, seed)

    xs, zs, zps = [], [], []
    eye_v = np.eye(alg.dim_v)
    eye_z = np.eye(alg.dim_z)
    for a in range(alg.dim_v):
        for b in range(alg.dim_z):
            for c in range(alg.dim_z):
                if b != c:
                    xs.append(eye_v[a])
                    zs.append(eye_z[b])
                    zps.append(eye_z[c])
    rng = np.random.default_rng(seed)
    xs.append(_unit_rows(rng, samples, alg.dim_v))
    z1, z2 = _orthonormal_pairs(rng, samples, alg.dim_z)
    zs.append(z1)
    zps.append(z2)
    x = np.vstack([np.atleast_2d(t) for t in xs])
    z = np.vstack([np.atleast_2d(t) for t in zs])
    zp = np.vstack([np.atleast_2d(t) for t in zps])

    residuals = _j2_residuals(alg, x, z, zp)
    worst = float(np.max(residuals))
    # earliest near-maximal triple, so basis witnesses win ties over samples
    worst_index = int(np.argmax(residuals >= worst * (1.0 - 1e-12)))
    ok = worst <= tol
    witness = None if ok else J2Witness(x[worst_index], z[worst_index], zp[worst_index])
    return J2Report(alg.label, alg.fingerprint, ok, worst, witness, samples, tol, seed)


def _set_bracket(tensor: np.ndarray, k: int, i: int, j: int, value: float) -> None:
    tensor[k, i, j] = value
    tensor[k, j, i] = -value


def make_heisenberg(kind: AlgebraKind, n: int = 1) -> HTypeAlgebra:
    """The Heisenberg group algebra over one of R, C, H, O with n blocks.

    The horizontal layer is K^n laid out blockwise (dim(K) coordinates per
    block), the center is Im(K).  Over O only n = 1 is defined.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind is AlgebraKind.OCTONION and n != 1:
        raise ValueError("the octonion algebra only exists with n = 1")
    d = kind.dim
    dim_v = n * d
    dim_z = kind.im_dim
    tensor = np.zeros((dim_z, dim_v, dim_v))
    if kind is AlgebraKind.COMPLEX:
        for i in range(n):
            _set_bracket(tensor, 0, 2 * i, 2 * i + 1, 1.0)  # [X_i, Y_i] = Z
    elif kind is AlgebraKind.QUATERNION:
        for i in range(n):
            x, y, v, w = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
            _set_bracket(tensor, 0, x, y, 1.0)  # [X_i, Y_i] = Z_1
            _set_bracket(tensor, 0, v, w, 1.0)  # [V_i, W_i] = Z_1
            _set_bracket(tensor, 1, x, v, 1.0)  # [X_i, V_i] = Z_2
            _set_bracket(tensor, 1, w, y, 1.0)  # [W_i, Y_i] = Z_2
            _set_bracket(tensor, 2, x, w, 1.0)  # [X_i, W_i] = Z_3
            _set_bracket(tensor, 2, y, v, 1.0)  # [Y_i, V_i] = Z_3
    elif kind is AlgebraKind.OCTONION:
        eps = _algebra.epsilon_tensor(kind)
        for k in range(1, 8):
            _set_bracket(tensor, k - 1, 0, k, 1.0)  # [X_0, X_k] = Z_k
        for i in range(1, 8):
            for j in range(i + 1, 8):
                for k in range(1, 8):
                    value = eps[i, j, k]
                    if value:
                        _set_bracket(tensor, k - 1, i, j, float(value))
    letter = _KIND_LETTER[kind]
    label = "H_O" if kind is AlgebraKind.OCTONION else f"H_{letter}:{n}"
    return HTypeAlgebra(label, dim_v, dim_z, tensor)


def make_truncated_quaternionic() -> HTypeAlgebra:
    """Negative control: H-type but not J^2.

    The horizontal layer is the quaternions, the center only the first two
    imaginary directions, with the bracket of the one-block quaternionic
    algebra orthogonally projected onto them.
    """
    full = make_heisenberg(AlgebraKind.QUATERNION, 1)
    return HTypeAlgebra("truncated_HH", 4, 2, full.structure[:2])


def make_degenerate_direct_sum() -> HTypeAlgebra:
    """Negative control: fails the Heisenberg-type condition.

    dim_v = 4, dim_z = 1 with the single bracket [X_1, X_2] = Z, so J_Z
    annihilates the last two horizontal directions.
    """
    tensor = np.zeros((1, 4, 4))
    _set_bracket(tensor, 0, 0, 1, 1.0)
    return HTypeAlgebra("degenerate_sum", 4, 1, tensor)


_BUILTIN_FIXED = {
    "truncated_HH": make_truncated_quaternionic,
    "degenerate_sum": make_degenerate_direct_sum,
}

_LETTER_KIND = {v: k for k, v in _KIND_LETTER.items()}


def builtin_names() -> list[str]:
    return ["H_R:n", "H_C:n", "H_H:n", "H_O", "truncated_HH", "degenerate_sum"]


def algebra_from_name(name: str) -> HTypeAlgebra:
    """Resolve a builtin algebra name like ``H_C:2``, ``H_O`` or ``truncated_HH``."""
    if name in _BUILTIN_FIXED:
        return _BUILTIN_FIXED[name]()
    base, _, suffix = name.partition(":")
    if base in ("H_R", "H_C", "H_H", "H_O"):
        kind = _LETTER_KIND[base[2]]
        if suffix == "":
            n = 1
        else:
            try:
                n = int(suffix)
            except ValueError:
                raise ValueError(f"invalid block count {suffix!r} in algebra name {name!r}") from None
        if n < 1:
            raise ValueError(f"block count must be >= 1 in algebra name {name!r}")
        if kind is AlgebraKind.OCTONION and n != 1:
            raise ValueError("H_O does not admit more than one block")
        return make_heisenberg(kind, n)
    raise ValueError(
        f"unknown algebra name {name!r} (expected one of {', '.join(builtin_names())}, "
        "or a path to an algebra-spec JSON file)"
    )


def load_algebra_spec(path) -> HTypeAlgebra:
    """Load an algebra-spec JSON file, antisymmetrizing and validating entries."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed algebra spec {path}: {exc}") from None
    for key in ("label", "dim_v", "dim_z", "entries"):
        if key not in data:
            raise ValueError(f"algebra spec {path} is missing the field {key!r}")
    dim_v, dim_z = int(data["dim_v"]), int(data["dim_z"])
    if dim_v < 1 or dim_z < 0:
        raise ValueError(f"algebra spec {path}: invalid dimensions dim_v={dim_v}, dim_z={dim_z}")
    tensor = np.zeros((dim_z, dim_v, dim_v))
    seen = set()
    for entry in data["entries"]:
        if len(entry) != 4:
            raise ValueError(f"algebra spec {path}: entry {entry!r} is not [i, j, k, value]")
        i, j, k, value = int(entry[0]), int(entry[1]), int(entry[2]), float(entry[3])
        if not (1 <= i < j <= dim_v):
            raise ValueError(f"algebra spec {path}: entry {entry!r} needs 1 <= i < j <= dim_v")
        if not 1 <= k <= dim_z:
            raise ValueError(f"algebra spec {path}: entry {entry!r} has center index out of range")
        if not np.isfinite(value):
            raise ValueError(f"algebra spec {path}: entry {entry!r} has a non-finite value")
        if (i, j, k) in seen:
            raise ValueError(f"algebra spec {path}: duplicate entry for (i, j, k) = {(i, j, k)}")
        seen.add((i, j, k))
        tensor[k - 1, i - 1, j - 1] = value
        tensor[k - 1, j - 1, i - 1] = -value
    return HTypeAlgebra(str(data["label"]), dim_v, dim_z, tensor)
