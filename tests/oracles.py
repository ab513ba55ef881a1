"""Test oracles and fixtures: the bracket and the J-map of single vectors,
which the library evaluates only rowwise (``hlie.bracket_arrays``,
``hlie._j_cols``); division-algebra conjugation, which the library does not
need; einsum forms of the three bilinear kernels (``hlie.bracket_arrays``,
``hlie._j_cols``, ``algebra.mul_arrays``), as the library evaluated them
before it used cached structure matrices;
the bracket as the library evaluated it before its coordinate-major layout,
by gathers out of the last axis; an algebra-spec writer, which the library
does not need; the distance-matrix CSV writer and reader as they were
before the writer formatted each symmetric pair once and the reader parsed
with numpy; the triangle scan that validation and the closure share, as
it was before its float32 pre-filter, every block in float64; the
H-type residual with every Clifford block in one array, as it was before
the center directions were taken one at a time; the
inversion-identity chunk as it was before it
fused the kernels, through the public ``gauge_arrays``, ``gauge_dist_arrays``
and ``sigma_arrays``; the quasimobius cross-ratios as they
were before each distance was gathered once for both orders of the middle
pair, with the statistics of ``estimate_quasimobius`` reduced from them as
whole arrays, as they were before each chunk was reduced on its own;
``check_arithmetic`` with the chunk draws of ``util._sampled`` concatenated
and every product and residual of a kind taken as one whole array, as it
was before each chunk was reduced on its own; and the tracemalloc peak of
a call."""

import copy
import csv
import json
import tracemalloc
from pathlib import Path

import numpy as np

from heislab.algebra import (_SLICE_ROWS, AlgebraKind, ArithmeticReport, mul_arrays,
                             multiplication_tensor, random_elements)
from heislab.distortion import sample_quadruples
from heislab.finite_metric import _SCAN_BLOCK, FiniteMetricSpace
from heislab.hgroup import gauge_arrays, gauge_dist_arrays, sample_with_rng
from heislab.hlie import HTypeAlgebra, bracket_arrays
from heislab.inversion import sigma_arrays
from heislab.util import _CHUNK, format_float


# Row counts that cover the row slices of ``algebra._by_slices``: one row, one
# slice and one slice +- 1, half a slice +- 1, and 6,149, one slice and a part.
ROW_COUNTS = [1, 2047, 2048, 2049, _SLICE_ROWS - 1, _SLICE_ROWS, _SLICE_ROWS + 1, 6149]


def _require_horizontal(alg: HTypeAlgebra, x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (alg.dim_v,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({alg.dim_v},) for {alg.label}")
    return x


def bracket(alg: HTypeAlgebra, x, y) -> np.ndarray:
    """The bracket [x, y] of two horizontal vectors, as a center vector."""
    x = _require_horizontal(alg, x, "x")
    y = _require_horizontal(alg, y, "y")
    return bracket_arrays(alg, x[None, :], y[None, :])[0]


def j_map(alg: HTypeAlgebra, z) -> np.ndarray:
    """The skew-symmetric operator J_Z on the horizontal layer, as a matrix."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (alg.dim_z,):
        raise ValueError(f"z has shape {z.shape}, expected ({alg.dim_z},) for {alg.label}")
    return np.einsum("k,kij->ji", z, alg.structure)


def conj(a) -> np.ndarray:
    """The conjugates of division-algebra elements, one per row: the imaginary
    coefficients negated."""
    out = np.array(a, dtype=np.float64)
    out[..., 1:] *= -1.0
    return out


def bracket_einsum(alg: HTypeAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference rowwise bracket: the strictly-upper terms contracted with a center selector."""
    k, i, j = np.nonzero(alg.structure)
    keep = i < j
    k, i, j = k[keep], i[keep], j[keep]
    coeff = alg.structure[k, i, j]
    selector = np.zeros((k.size, alg.dim_z))
    selector[np.arange(k.size), k] = 1.0
    if i.size == 0:
        return np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (alg.dim_z,))
    terms = coeff * (x[..., i] * y[..., j] - x[..., j] * y[..., i])
    return np.einsum("...m,mk->...k", terms, selector)


def bracket_slots(alg: HTypeAlgebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strictly-upper structure entries as (slots, dim_z) arrays i, j, coeff.

    Slot p holds, for each center direction k, its p-th entry in (i, j)
    order; directions with fewer entries are padded with coefficient 0.
    """
    k, i, j = np.nonzero(alg.structure)
    keep = i < j
    k, i, j = k[keep], i[keep], j[keep]
    slot = np.arange(k.size) - np.searchsorted(k, k)  # rank within direction k
    shape = (int(slot.max(initial=-1)) + 1, alg.dim_z)
    first, second = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
    coeff = np.zeros(shape)
    first[slot, k], second[slot, k], coeff[slot, k] = i, j, alg.structure[k, i, j]
    return first, second, coeff


def bracket_gather(alg: HTypeAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference rowwise bracket: (..., slots, dim_z) gathers out of the last
    axis, summed slot by slot; leading dimensions broadcast."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    i, j, coeff = bracket_slots(alg)
    terms = coeff * (x[..., i] * y[..., j] - x[..., j] * y[..., i])  # (..., slots, dim_z)
    out = np.zeros(terms.shape[:-2] + (alg.dim_z,))
    for slot in range(terms.shape[-2]):
        out += terms[..., slot, :]
    return out


def apply_j_rows_einsum(alg: HTypeAlgebra, z_rows: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
    """Reference rowwise J-map: one three-operand einsum against the structure tensor."""
    return np.einsum("sk,kij,si->sj", z_rows, alg.structure, x_rows)


def mul_arrays_einsum(kind: AlgebraKind, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference rowwise division-algebra product against the multiplication tensor."""
    return np.einsum("ni,nj,ijk->nk", a, b, multiplication_tensor(kind))


def write_algebra_spec(alg: HTypeAlgebra, path) -> None:
    """An algebra-spec file {label, dim_v, dim_z, entries} with 1-based upper-triangle entries."""
    k, i, j = np.nonzero(alg.structure)
    entries = [[int(a) + 1, int(b) + 1, int(c) + 1, float(alg.structure[c, a, b])]
               for c, a, b in zip(k, i, j) if a < b]
    payload = {"label": alg.label, "dim_v": alg.dim_v, "dim_z": alg.dim_z, "entries": entries}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def save_space_csv_rowwise(space: FiniteMetricSpace, path_or_file) -> None:
    """First row labels, then the matrix with round-trip float formatting."""

    def write(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(space.labels)
        for row in space.dist:
            writer.writerow([format_float(x) for x in row])

    if hasattr(path_or_file, "write"):
        write(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            write(fh)


def load_space_csv_rowloop(path) -> FiniteMetricSpace:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            labels = next(reader)
        except StopIteration:
            raise ValueError(f"distance file {path} is empty") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(labels):
                raise ValueError(f"distance file {path}: row {lineno} has {len(row)} "
                                 f"fields, expected {len(labels)}")
            try:
                rows.append([float(t) for t in row])
            except ValueError:
                raise ValueError(f"distance file {path}: row {lineno} has a "
                                 "non-numeric field") from None
    if len(rows) != len(labels):
        raise ValueError(f"distance file {path}: {len(rows)} data rows do not match "
                         f"{len(labels)} labels")
    return FiniteMetricSpace(labels, np.asarray(rows))


def scan_rows_float64(dist: np.ndarray, slack: float, rows: range, bad: np.ndarray,
                      pivots: np.ndarray) -> None:
    """Flag in ``bad`` the rows of ``rows`` with a triangle violation at some
    j >= i, by more than ``slack`` times d(i, j), and in ``pivots`` the k of
    every violating (i, k, j).

    Row a of the buffer holds d(j, k) + d(i, k) for j = j0 + a, as the
    witness of ``_triangle_error`` computes it.  Every row is scanned to its
    end, and a violating (i, k, j) flags row j >= i too (its mirror
    (j, k, i) violates) and pivot k.  A worker stops once rows i.. and
    every pivot are flagged, as nothing is left to flag.
    """
    n = dist.shape[0]
    buf = np.empty((min(_SCAN_BLOCK, n), n), dtype=dist.dtype)
    best = np.empty(buf.shape[0], dtype=dist.dtype)
    for i in rows:
        if bad[i:].all() and pivots.all():
            return
        for j0 in range(i, n, _SCAN_BLOCK):
            m = min(_SCAN_BLOCK, n - j0)
            np.add(dist[j0:j0 + m], dist[i], out=buf[:m])
            np.min(buf[:m], axis=1, out=best[:m])
            d = dist[i, j0:j0 + m]
            over = d > best[:m] + slack * d
            if not over.any():
                continue
            bad[i] = True
            bad[j0:j0 + m] |= over
            if not pivots.all():
                pivots |= (buf[:m] < dist[i, j0:j0 + m, None]).any(axis=0)


def reject_constant(name: str):
    """``parse_constant`` of a strict JSON reader: the tokens ``NaN``,
    ``Infinity`` and ``-Infinity`` are not JSON."""
    raise ValueError(f"non-JSON constant {name}")


def peak_mib(call) -> float:
    """The tracemalloc peak of ``call()`` in MiB: numpy reports its array
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def h_type_residual_whole(alg: HTypeAlgebra) -> float:
    """Reference residual of ``hlie.check_h_type``: every S_ab - delta_ab I of
    the Clifford relations in one (dim_z, dim_z, dim_v, dim_v) array, as it
    was before the directions were taken one at a time."""
    # in C order, the layout check_h_type reads B in: einsum's summation order follows it
    j = np.array([j_map(alg, unit) for unit in np.eye(alg.dim_z)])
    gram = np.einsum("aij,bik->abjk", j, j)
    clifford = 0.5 * (gram + gram.transpose(1, 0, 2, 3))
    np.einsum("aajj->aj", clifford)[...] -= 1.0
    return float(np.max(np.abs(clifford), initial=0.0))


def inversion_chunk_whole(alg: HTypeAlgebra, count: int, radius: float,
                          rng: np.random.Generator) -> tuple:
    """Reference chunk of ``verify_inversion``, by the public kernels: pairs
    used, worst deviation, worst row, and the generator as it was before
    the draws."""
    start = copy.deepcopy(rng)
    vp, zp = sample_with_rng(alg, count, radius, rng)
    vq, zq = sample_with_rng(alg, count, radius, rng)
    gp = gauge_arrays(alg, vp, zp)
    gq = gauge_arrays(alg, vq, zq)
    d_pq = gauge_dist_arrays(alg, vp, zp, vq, zq)
    keep = (gp > 0.0) & (gq > 0.0) & (d_pq > 0.0)
    rows = np.flatnonzero(keep)
    if rows.size == 0:
        return 0, -1.0, None, start
    vp, zp, vq, zq, gp, gq, d_pq = (a[keep] for a in (vp, zp, vq, zq, gp, gq, d_pq))
    sp = sigma_arrays(alg, vp, zp)
    sq = sigma_arrays(alg, vq, zq)
    ratio = gauge_dist_arrays(alg, sp[0], sp[1], sq[0], sq[1]) * gp * gq / d_pq
    deviation = np.abs(ratio - 1.0)
    worst = int(np.argmax(deviation))
    return rows.size, float(deviation[worst]), int(rows[worst]), start


def _quasimobius_rows(d_in: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """The quadruples of ``estimate_quasimobius``, drawn in chunks of
    ``util._CHUNK``, each from its own child of the seed, and stacked over
    their middle-swapped copies."""
    chunks = -(-samples // _CHUNK)
    quads = np.vstack([sample_quadruples(d_in.shape[0], min(_CHUNK, samples - k * _CHUNK),
                                         np.random.default_rng(child))
                       for k, child in enumerate(np.random.SeedSequence(seed).spawn(chunks))])
    return np.vstack([quads, quads[:, [0, 2, 1, 3]]])


def quasimobius_ratios_vstack(d_in: np.ndarray, d_out: np.ndarray, samples: int,
                              seed: int) -> tuple:
    """Reference cross-ratios of ``estimate_quasimobius``, degenerate rows
    included: the sampled quadruples stacked over their middle-swapped copies,
    and four gathers per matrix and row."""
    x, y, z, w = _quasimobius_rows(d_in, samples, seed).T
    with np.errstate(divide="ignore", invalid="ignore"):
        return tuple(d[x, y] * d[z, w] / (d[x, z] * d[y, w]) for d in (d_in, d_out))


def quasimobius_statistics_vstack(d_in: np.ndarray, d_out: np.ndarray, samples: int,
                                  seed: int, bins_per_decade: int) -> tuple:
    """Reference statistics and raw pairs of ``estimate_quasimobius``, each a
    reduction of the whole arrays of :func:`quasimobius_ratios_vstack`: the
    extremes, the counts, and the envelope by a mask per bin."""
    t_in, t_out = quasimobius_ratios_vstack(d_in, d_out, samples, seed)
    good = np.isfinite(t_in) & np.isfinite(t_out) & (t_in > 0.0) & (t_out > 0.0)
    x, y, z, w = _quasimobius_rows(d_in, samples, seed)[~good].T
    zero = np.zeros(len(x), dtype=bool)
    for d in (d_in, d_out):
        zero |= (d[x, y] == 0.0) | (d[z, w] == 0.0) | (d[x, z] == 0.0) | (d[y, w] == 0.0)
    t_in, t_out = t_in[good], t_out[good]
    ratio = t_out / t_in
    edges = np.floor(np.log10(t_in) * bins_per_decade).astype(np.int64)
    envelope = [{
        "t_low": float(10.0 ** (edge / bins_per_decade)),
        "t_high": float(10.0 ** ((edge + 1) / bins_per_decade)),
        "max_t_out": float(np.max(t_out[edges == edge])),
        "max_ratio": float(np.max(ratio[edges == edge])),
    } for edge in np.unique(edges)]
    statistics = {
        "strong_constant": float(np.max(ratio)),
        "min_ratio": float(np.min(ratio)),
        "quadruples_used": int(t_in.size),
        "degenerate_skipped": int(np.count_nonzero(~good)),
        "nonfinite_skipped": int(np.count_nonzero(~zero)),
        "envelope": envelope,
    }
    return statistics, (t_in, t_out)


def check_arithmetic_whole(kinds, samples: int, seed: int = 0,
                           tol: float = 1e-12) -> ArithmeticReport:
    """Reference ``check_arithmetic``: the operands of each chunk of
    ``util._CHUNK`` samples drawn from its own child of the seed, as
    ``util._sampled`` hands the children out, concatenated; then each
    product and residual of a kind as one array of all the samples."""
    chunks = -(-samples // _CHUNK)
    results = []
    for kind in kinds:
        octonion = kind is AlgebraKind.OCTONION
        draws = []
        for k, child in enumerate(np.random.SeedSequence(seed).spawn(chunks)):
            rng = np.random.default_rng(child)
            count = min(_CHUNK, samples - k * _CHUNK)
            draws.append([random_elements(kind, count, rng) for _ in range(2 if octonion else 3)])
        operands = [np.vstack(operand) for operand in zip(*draws)]
        a, b = operands[:2]
        ab = mul_arrays(kind, a, b)
        scale = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        composition = float(np.max(np.abs(np.linalg.norm(ab, axis=1) - scale) / scale))
        if octonion:
            name = "alternativity_residual"
            left = mul_arrays(kind, a, mul_arrays(kind, a, b))
            right = mul_arrays(kind, mul_arrays(kind, a, a), b)
            scale = np.linalg.norm(a, axis=1) ** 2 * np.linalg.norm(b, axis=1)
        else:
            name = "associativity_residual"
            c = operands[2]
            left = mul_arrays(kind, ab, c)
            right = mul_arrays(kind, a, mul_arrays(kind, b, c))
            scale = scale * np.linalg.norm(c, axis=1)
        residual = float(np.max(np.abs(left - right) / scale[:, None]))
        results.append({"kind": kind.value, "composition_residual": composition,
                        name: residual, "passed": composition <= tol and residual <= 1e-12})
    return ArithmeticReport(samples, seed, tol, results)
