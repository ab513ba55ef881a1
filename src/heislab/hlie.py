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
Both conditions are polynomial identities in the structure constants
(Cowling-Dooley-Koranyi-Ricci 1991), and both are certified exactly here
from the coefficients of those identities; no random sampling is involved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
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
        return _algebra._flat_bilinear(self.structure)

    @cached_property
    def _bracket_entries(self) -> tuple[tuple[int, int, int, float], ...]:
        """Strictly-upper structure entries (k, i, j, B[k,i,j]), by direction k
        and then in (i, j) order."""
        k, i, j = np.nonzero(self.structure)
        return tuple((int(c), int(a), int(b), float(self.structure[c, a, b]))
                     for c, a, b in zip(k, i, j) if a < b)

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

    The layout is coordinate-major: x and y are copied once to contiguous
    (dim_v, ...) arrays, and each structure entry runs as whole-row ufuncs
    over the leading dimensions, into two term buffers and a (dim_z, ...)
    accumulator that starts at +0.  The earlier form gathered the
    coordinates out of the short last axis into (..., slots, dim_z) tables;
    on H_O at 16,384 rows it took about 5x as long (2-vCPU VM, numpy 2.4.6),
    mostly in page faults on those tables.  Each element still gets
    ``((0 + t_1) + t_2) + ...`` with ``t = B[k,i,j] * (x_i y_j - x_j y_i)``,
    the same roundings in the same order, so the bits are those of the
    gather form.  (That form also added a 0 * (x_0 y_0 - x_0 y_0) term for
    each slot a direction lacks, which is +0 unless x_0 y_0 overflows.)
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    xt = np.moveaxis(x, -1, 0).copy()
    yt = np.moveaxis(y, -1, 0).copy()
    out = np.zeros((alg.dim_z,) + lead)
    term, other = np.empty(lead), np.empty(lead)
    for k, i, j, coeff in alg._bracket_entries:
        np.multiply(xt[i], yt[j], out=term)
        np.multiply(xt[j], yt[i], out=other)
        np.subtract(term, other, out=term)
        np.multiply(term, coeff, out=term)
        acc = out[k, ...]  # a view also when there are no leading dimensions
        np.add(acc, term, out=acc)
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def apply_j_rows(alg: HTypeAlgebra, z_rows: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
    """Rowwise J_{z_rows[s]} x_rows[s]; returns (n, dim_v), by ``algebra._bilinear_rows``."""
    return _algebra._bilinear_rows(z_rows, x_rows, alg._j_columns)


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
    """Unit rows x, z, z' whose ``J_z J_z' x`` lies off span{J_W x}."""

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
    """Certify |J_Z X| = |Z||X| exactly, by the Clifford relations over the center basis.

    ``|J_Z X|^2 = sum_ab Z_a Z_b <X, S_ab X>`` with the symmetric matrices
    ``S_ab = (J_a^T J_b + J_b^T J_a) / 2``, so the condition holds for all X
    and Z exactly when ``S_ab = delta_ab I``.  The residual is the largest
    entry of ``S_ab - delta_ab I``.  With an empty center the condition holds
    vacuously.  ``samples`` and ``seed`` are recorded in the report for
    replay only; they change no verdict or residual.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    gram = np.einsum("aij,bik->abjk", alg.j_stack, alg.j_stack)  # J_a^T J_b
    clifford = 0.5 * (gram + gram.transpose(1, 0, 2, 3))
    clifford -= np.einsum("ab,jk->abjk", np.eye(alg.dim_z), np.eye(alg.dim_v))
    worst = float(np.max(np.abs(clifford), initial=0.0))
    return HTypeReport(alg.label, alg.fingerprint, worst <= tol, worst, samples, tol, seed)


def _j2_residuals(alg: HTypeAlgebra, x: np.ndarray, z: np.ndarray,
                  zp: np.ndarray) -> np.ndarray:
    """Distance of J_z J_z' x from span{J_{Z_k} x}, for unit rows x, z, z'."""
    inner = apply_j_rows(alg, zp, x)
    target = apply_j_rows(alg, z, inner)
    generators = (x @ alg._j_columns).reshape(x.shape[0], alg.dim_z, alg.dim_v)
    gram = np.einsum("skv,slv->skl", generators, generators)
    rhs = np.einsum("skv,sv->sk", generators, target)
    coeff = np.linalg.solve(gram, rhs[..., None])[..., 0]
    projection = np.einsum("skv,sk->sv", generators, coeff)
    return np.linalg.norm(target - projection, axis=1)


def _j2_cubic(alg: HTypeAlgebra, a: int, b: int) -> np.ndarray:
    """Coefficients T of ``F_ab(X)_i = sum_jkl T[i,j,k,l] X_j X_k X_l``, symmetric in
    (j, k, l), for ``F_ab(X) = |X|^2 J_a J_b X - sum_c <J_c X, J_a J_b X> J_c X``."""
    j = alg.j_stack
    product = j[a] @ j[b]
    cubic = np.einsum("ij,kl->ijkl", product, np.eye(alg.dim_v))
    cubic -= np.tensordot(j, j.transpose(0, 2, 1) @ product, axes=(0, 0))
    return sum(cubic.transpose(0, *order) for order in permutations((1, 2, 3))) / 6.0


def check_j2(alg: HTypeAlgebra, samples: int = 2000, tol: float = DEFAULT_TOL,
             seed: int = 0) -> J2Report:
    """Certify the J^2-condition exactly, by the coefficients of one cubic per center pair.

    On a Heisenberg-type algebra the ``J_c X / |X|`` are orthonormal, and
    ``J_z J_z' = sum_{a != b} z_a z'_b J_a J_b`` for orthogonal z, z'.  So the
    condition holds exactly when, for every ordered pair a != b, the cubic
    :func:`_j2_cubic` vanishes identically.  The residual is its largest
    coefficient over all pairs.  The witness x is the normalized polarization
    point ``e_j +- e_k +- e_l`` of that coefficient whose ``J_{e_a} J_{e_b} x``
    lies farthest from span{J_W x}; polarization puts one of them off the
    span.  Requires a Heisenberg-type algebra; a center of dimension 0 or 1
    satisfies the condition vacuously.  ``samples`` and ``seed`` are recorded
    in the report for replay only; they change no verdict, residual or witness.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    precheck = check_h_type(alg, samples=min(samples, 512), tol=tol, seed=seed)
    if not precheck.is_h_type:
        raise ValueError(
            f"{alg.label} is not of Heisenberg type "
            f"(residual {precheck.max_residual:.3e}); the J^2 check does not apply"
        )
    worst, largest = 0.0, None
    for a, b in permutations(range(alg.dim_z), 2):
        cubic = np.abs(_j2_cubic(alg, a, b))
        index = np.unravel_index(np.argmax(cubic), cubic.shape)
        if cubic[index] > worst:
            worst, largest = float(cubic[index]), (a, b, index[1:])
    witness = None
    if worst > tol:
        a, b, (j, k, l) = largest
        signs = np.array([[1, s, t] for s in (1, -1) for t in (1, -1)])  # e_j +- e_k +- e_l
        x = signs @ np.eye(alg.dim_v)[[j, k, l]]
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        z, zp = np.eye(alg.dim_z)[[a] * 4], np.eye(alg.dim_z)[[b] * 4]
        best = int(np.argmax(_j2_residuals(alg, x, z, zp)))
        witness = J2Witness(x[best], z[best], zp[best])
    return J2Report(alg.label, alg.fingerprint, worst <= tol, worst, witness, samples, tol,
                    seed)


def make_heisenberg(kind: AlgebraKind, n: int = 1) -> HTypeAlgebra:
    """The Heisenberg group algebra over one of R, C, H, O with n blocks.

    The horizontal layer is K^n laid out blockwise (dim(K) coordinates per
    block), the center is Im(K), and J_{Z_k} is left multiplication by e_k on
    each block: ``B[k-1, i, j] = <e_k e_i, e_j>``, the rows 1.. of
    :func:`algebra.multiplication_tensor`.  Over O only n = 1 is defined.
    """
    if n < 1:
        raise ValueError(f"block count must be >= 1, got {n}")
    if kind is AlgebraKind.OCTONION and n != 1:
        raise ValueError("the octonion algebra H_O does not admit more than one block")
    d = kind.dim
    left = _algebra.multiplication_tensor(kind)[1:]
    tensor = np.zeros((kind.im_dim, n * d, n * d))
    for start in range(0, n * d, d):
        tensor[:, start:start + d, start:start + d] = left
    label = "H_O" if kind is AlgebraKind.OCTONION else f"H_{_KIND_LETTER[kind]}:{n}"
    return HTypeAlgebra(label, n * d, kind.im_dim, tensor)


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
    tensor[0, 0, 1], tensor[0, 1, 0] = 1.0, -1.0
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
        try:
            n = int(suffix) if suffix else 1
        except ValueError:
            raise ValueError(f"invalid block count {suffix!r} in algebra name {name!r}") from None
        return make_heisenberg(_LETTER_KIND[base[2]], n)
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
