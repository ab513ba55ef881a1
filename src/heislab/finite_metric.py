"""Inversion and sphericalization of finite metric spaces.

Starting from a labeled symmetric distance matrix and a base point p, the
inversion quasimetric is

    t_p(x, y) = d(x, y) / (d(x, p) d(y, p)),      t_p(x, inf) = 1 / d(x, p),

over the punctured point set plus an added point at infinity, and the
sphericalization quasimetric keeps every point and divides by
``(1 + d(., p))`` factors instead.  Both may violate the triangle
inequality; the chain metric (the largest metric below a quasimetric,
realized on a finite set by the all-pairs shortest-path closure of the
entry weights) repairs them.  The closure is Floyd–Warshall in numpy that
runs only the pivots able to change an entry, found by the same blocked
triangle scan that validation runs.  For quasimetrics built from a genuine metric
the chain metric stays within the sandwich

    quasimetric / 4  <=  chain metric  <=  quasimetric,

entrywise, which the test suite checks exhaustively.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from heislab.hgroup import pairwise_gauge_dist
from heislab.hlie import HTypeAlgebra
from heislab.util import _cpu_count, _ordered_map, _write_text, format_float, format_floats

__all__ = [
    "INFINITY_LABEL",
    "FiniteMetricSpace",
    "validate_distance_matrix",
    "inversion_quasimetric",
    "sphericalization_quasimetric",
    "chain_metric",
    "invert_space",
    "sphericalize_space",
    "from_group_arrays",
    "shared_submatrices",
    "save_space_csv",
    "load_space_csv",
]

INFINITY_LABEL = "∞"

DEFAULT_SLACK = 1e-9  # relative, see validate_distance_matrix
# Cap on the points of a space handed to the closure (numpy Floyd–Warshall,
# O(n^2) memory: at n = 2000 the matrix and its working copy take 32 MB each
# and the scan's float32 copy 16 MB; one triangle scan when nothing needs
# closing, O(n^3) pivots when much does); the closed space has one point
# more (infinity) after sphericalization.
MAX_POINTS = 2000


def _check_entries(dist: np.ndarray) -> None:
    """Raise with the first offending entry unless ``dist`` is square, finite,
    symmetric, zero on the diagonal and positive off it."""
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {dist.shape}")
    bad = np.argwhere(~np.isfinite(dist))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"non-finite distance at (i, j) = ({i}, {j})")
    bad = np.argwhere(dist != dist.T)
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"asymmetric distances at (i, j) = ({i}, {j}): "
                         f"{format_float(dist[i, j])} vs {format_float(dist[j, i])}")
    diag = np.argwhere(np.diag(dist) != 0.0)
    if diag.size:
        i = int(diag[0][0])
        raise ValueError(f"nonzero diagonal at i = {i}: {format_float(dist[i, i])}")
    off = ~np.eye(dist.shape[0], dtype=bool)
    bad = np.argwhere((dist <= 0.0) & off)
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"non-positive off-diagonal distance at (i, j) = ({i}, {j}): "
                         f"{format_float(dist[i, j])}")


# Rows of the triangle scan summed into one buffer per worker: a block of
# 128 rows of a 1000-point matrix (1 MB) stays in cache.  The closure's
# pivots update the matrix in blocks of the same size.
_SCAN_BLOCK = 128
# The float32 pre-filter of the scan (see _scan_rows): the range of the
# off-diagonal entries its bound holds for, and the margin of its test.
_COARSE_LOW, _COARSE_HIGH = 2.0 ** -100, 2.0 ** 100
_COARSE_MARGIN = 1.0 + 2.0 ** -21


def _coarse_copy(dist: np.ndarray, slack: float) -> np.ndarray | None:
    """The float32 copy of ``dist`` with an infinite diagonal that filters the
    scan's blocks, or None where the filter's bound does not hold: a slack
    below 0, an input other than float64, or an off-diagonal entry outside
    [2^-100, 2^100]."""
    if not slack >= 0.0 or dist.dtype != np.float64 or dist.max(initial=0.0) > _COARSE_HIGH:
        return None
    coarse = dist.astype(np.float32)
    np.fill_diagonal(coarse, np.inf)
    if coarse.min(initial=np.inf) < _COARSE_LOW:
        return None
    return coarse


def _scan(dist: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """The triangle scan of ``dist``: the rows it flags and the useful pivots,
    each as one mask over all workers.  Above one block of rows it runs on
    ``util._cpu_count()`` workers, and worker w takes the rows
    i = w (mod workers), which balances the triangle, and returns its own
    marks from its job, as a forked worker's writes stay in its process.
    The float32 copy is freed on return."""
    n = dist.shape[0]
    workers = _cpu_count() if n > _SCAN_BLOCK else 1
    coarse = _coarse_copy(dist, slack)

    def scan(w):
        marks = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        _scan_rows(dist, slack, range(w, n, workers), *marks, coarse=coarse)
        return marks

    marks = _ordered_map(scan, range(workers), workers)
    return tuple(np.logical_or.reduce(worker_marks) for worker_marks in zip(*marks))


def _exact_block(dist: np.ndarray, slack: float, i: int, j0: int, buf: np.ndarray,
                 best: np.ndarray) -> np.ndarray:
    """The float64 block of the scan: fill ``buf`` with d(j, k) + d(i, k) for
    the rows j = j0 .. j0 + len(buf) - 1, as the witness of
    ``_triangle_error`` computes it, and return which of those rows violate
    by more than ``slack`` times d(i, j)."""
    m = buf.shape[0]
    np.add(dist[j0:j0 + m], dist[i], out=buf)
    np.min(buf, axis=1, out=best)
    return dist[i, j0:j0 + m] > best + slack * dist[i, j0:j0 + m]


def _scan_rows(dist: np.ndarray, slack: float, rows: range, bad: np.ndarray,
               pivots: np.ndarray, coarse: np.ndarray | None = None) -> None:
    """Flag in ``bad`` the rows of ``rows`` with a triangle violation at some
    j >= i, and in ``pivots`` the k of every violating (i, k, j).

    Each block of ``_SCAN_BLOCK`` rows j = j0, j0 + 1, .. first runs the
    same add and row-min on ``coarse``, the float32 copy with an infinite
    diagonal; the float64 block (``_exact_block``) runs only where some
    float32 minimum is at most d(i, j) (1 + 2^-21), compared in float64.
    The filter skips no violation.  One needs d(i, j) > fl64(d(j, k) +
    d(i, k)) with k not in {i, j}: at k = i or j the sum is exactly
    d(i, j), and the infinite diagonal removes both from the float32
    minimum.  With every off-diagonal entry in [2^-100, 2^100] the float32
    copy is normal, so each entry converts and the float32 sum rounds with
    a relative error of at most u = 2^-24, and the float64 sum with at
    most 2^-53.  The float32 sum is then at most (1 + u)^2 / (1 - 2^-53)
    < 1 + 2^-22 times the float64 one, so below d(i, j) (1 + 2^-22), while
    the float64 product d(i, j) (1 + 2^-21) is above that.  A slack of at
    least 0 only makes a violation rarer, as fl(sum + slack d(i, j)) >= sum.
    Outside these conditions ``_coarse_copy`` gives None, and every block
    runs the float64 block alone.  So the marks are those of the float64
    scan, and only the float64 block decides a violation.

    Every row is scanned to its end, and a violating (i, k, j) flags row
    j >= i too (its mirror (j, k, i) violates) and pivot k.  A worker
    stops once rows i.. and every pivot are flagged, as nothing is left to
    flag.
    """
    n = dist.shape[0]
    buf = np.empty((min(_SCAN_BLOCK, n), n), dtype=dist.dtype)
    best = np.empty(buf.shape[0], dtype=dist.dtype)
    if coarse is not None:
        coarse_buf = np.empty(buf.shape, dtype=np.float32)
        coarse_best = np.empty(buf.shape[0], dtype=np.float32)
    for i in rows:
        if bad[i:].all() and pivots.all():
            return
        for j0 in range(i, n, _SCAN_BLOCK):
            m = min(_SCAN_BLOCK, n - j0)
            if coarse is not None:
                np.add(coarse[j0:j0 + m], coarse[i], out=coarse_buf[:m])
                np.min(coarse_buf[:m], axis=1, out=coarse_best[:m])
                if not (coarse_best[:m] <= dist[i, j0:j0 + m] * _COARSE_MARGIN).any():
                    continue
            over = _exact_block(dist, slack, i, j0, buf[:m], best[:m])
            if not over.any():
                continue
            bad[i] = True
            bad[j0:j0 + m] |= over
            if not pivots.all():
                pivots |= (buf[:m] < dist[i, j0:j0 + m, None]).any(axis=0)


def _triangle_error(dist: np.ndarray, i: int, slack: float) -> ValueError:
    """The message naming the first violating (i, k, j) of row i."""
    via = dist[i:] + dist[i]
    a = int(np.flatnonzero(dist[i, i:] > via.min(axis=1) + slack * dist[i, i:])[0])
    j = i + a
    k = int(np.argmin(via[a]))
    return ValueError(
        f"triangle inequality violated at (i, k, j) = ({i}, {k}, {j}): "
        f"d(i,j) = {format_float(dist[i, j])} exceeds "
        f"d(i,k) + d(k,j) = {format_float(via[a, k])} "
        f"by {dist[i, j] - via[a, k]:.3e}"
    )


def validate_distance_matrix(dist: np.ndarray) -> None:
    """Raise with the offending entry or triple if ``dist`` is not a metric.

    (i, k, j) violates when d(i, j) > (d(i, k) + d(k, j)) + DEFAULT_SLACK d(i, j):
    the tolerance is relative, so a power-of-two scaling that keeps the
    entries normal floats keeps the verdict and the reported triple.
    The triangle scan is the closure's (``_scan``), on the available CPUs;
    the verdict and the reported triple do not depend on how many.  It
    scans every row to its end, so rejecting a matrix costs about what
    accepting one does: a gauge matrix with one violating pair took
    0.26-0.30 s to reject at n = 1000 and 1.9 s at n = 2000 on 2 shared
    cores, where a scan that stopped at the first violating row took
    0.02 s and 0.09 s with the pair in row 0.
    """
    dist = np.asarray(dist)
    _check_entries(dist)
    # A violation at (i, j) with j < i is the mirror of one at (j, i), since
    # the matrix is exactly symmetric and float addition commutes; so the
    # first violating row has all its violating columns at j >= i, and only
    # those are scanned.  A row j is flagged through a row i only for i < j,
    # and row i is then flagged too, so the first flagged row is the first
    # violating row.
    bad, _ = _scan(dist, DEFAULT_SLACK)
    if bad.any():
        raise _triangle_error(dist, int(np.argmax(bad)), DEFAULT_SLACK)


class FiniteMetricSpace:
    """A labeled point set with a validated symmetric distance matrix."""

    def __init__(self, labels, dist, validate: bool = True):
        labels = [str(t) for t in labels]
        dist = np.asarray(dist, dtype=np.float64).copy()
        if dist.shape != (len(labels), len(labels)):
            raise ValueError(f"{len(labels)} labels do not match matrix shape {dist.shape}")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        if validate:
            validate_distance_matrix(dist)
        dist.setflags(write=False)
        self.labels = labels
        self.dist = dist

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def contains_infinity(self) -> bool:
        return INFINITY_LABEL in self.labels

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise ValueError(f"unknown point label {label!r}") from None

    def __repr__(self) -> str:
        return f"FiniteMetricSpace(n={self.n}, contains_infinity={self.contains_infinity})"


def _check_base(dist: np.ndarray, base: int) -> None:
    if not 0 <= base < dist.shape[0]:
        raise ValueError(f"base index {base} out of range for {dist.shape[0]} points")


def inversion_quasimetric(dist: np.ndarray, base: int) -> np.ndarray:
    """Quasimetric of the inversion of ``dist`` at point ``base``, over the
    punctured set plus infinity.

    Rows keep the original point order with the base point removed; the
    final row is the added point at infinity.  The output is symmetric with
    zero diagonal but may violate the triangle inequality.
    """
    _check_base(dist, base)
    n = dist.shape[0]
    keep = [i for i in range(n) if i != base]
    to_base = dist[base, keep]
    if np.any(to_base == 0.0):
        offender = keep[int(np.argmax(to_base == 0.0))]
        raise ValueError(f"point {offender} is at distance zero from the base point")
    return _with_infinity(dist[np.ix_(keep, keep)], to_base)


def sphericalization_quasimetric(dist: np.ndarray, base: int) -> np.ndarray:
    """Quasimetric of the sphericalization of ``dist`` at point ``base``, over
    all points plus infinity (the final row)."""
    _check_base(dist, base)
    return _with_infinity(dist, 1.0 + dist[base])


def _with_infinity(dist: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``dist[x, y] / (weight[x] weight[y])`` with zero diagonal, and a last row
    and column for the point at infinity at distance ``1 / weight[x]``."""
    n = dist.shape[0]
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = dist / np.outer(weight, weight)
    out[:n, n] = 1.0 / weight
    out[n, :n] = 1.0 / weight
    np.fill_diagonal(out, 0.0)
    return out


def _relax(d: np.ndarray, k: int, blocks: list, buf: np.ndarray, lower: np.ndarray,
           changed: np.ndarray | None) -> None:
    """Pivot k of Floyd–Warshall, d_ij <- min(d_ij, d_ik + d_kj), on the row
    blocks ``blocks`` (slices or index arrays) of ``d``.  With ``changed``,
    flag the rows the pivot lowers."""
    for rows in blocks:
        block = d[rows]
        m = block.shape[0]
        np.add(block[:, k, None], d[k], out=buf[:m])
        if changed is not None:
            np.less(buf[:m], block, out=lower[:m])
            changed[rows] |= lower[:m].any(axis=1)
        np.minimum(block, buf[:m], out=block)
        if isinstance(rows, np.ndarray):
            d[rows] = block


def chain_metric(quasimetric: np.ndarray) -> np.ndarray:
    """The largest metric below a quasimetric: its shortest-path closure.

    Input must be square, finite and symmetric with zero diagonal and
    positive off-diagonal entries.  The result is Floyd–Warshall's in
    ascending pivot order, bit for bit, with every pivot that provably
    changes nothing skipped.  Its cost, timed on 2 shared cores in one
    process:

    - no triangle violation: one slack-0 triangle scan on the available
      CPUs, whose float32 pre-filter (see ``_scan_rows``) hands no block
      of a gauge sample's quasimetrics to the float64 block, and the input
      comes back unchanged (n = 1000: 0.32-0.38 s against 0.55-0.85 s for
      the float64 scan alone; n = 2000: 2.6-2.7 s against 4.9-5.0 s;
      scipy's compiled Floyd–Warshall took 1.6-2.0 s and 15.8 s);
    - a few violations: the scan plus O(active rows * n) per useful pivot
      (the 2 entries a sphericalized gauge sample changes cost a few ms;
      the filter hands on one block, the base point's row, whose
      triangles through infinity are tight);
    - dense violations: every pivot runs on every row, O(n^3) in numpy on
      one thread (n = 1000 with 63-97 % of the entries lowered: 3.0-3.6 s;
      scipy took 1.7-2.0 s).  The scan stops early there.

    Known cost: where most triangles are tight, as in a densely closed
    matrix, nearly every block passes the filter, and the float32 pass
    comes on top of the float64 one.  Validating the closure of a dense
    n = 1000 quasimetric (4,414 of 4,416 blocks handed on) took 1.0-1.15 s
    against 0.53-0.61 s for the float64 scan alone.

    Memory is the input, one n x n working matrix, 128-row float64 and
    float32 buffers per scan worker and, while the scan runs, a float32
    copy of the matrix (4 MB at n = 1000).  ``invert_space`` and
    ``sphericalize_space`` cap its size.
    """
    q = np.asarray(quasimetric, dtype=np.float64)
    _check_entries(q)
    d = q.copy()
    np.fill_diagonal(d, 0.0)  # a -0.0 diagonal closes to +0.0
    # Pivot k sets d_ij <- min(d_ij, fl(d_ik + d_kj)) and leaves row and
    # column k alone (d_kk = 0), and every update is mirrored, so row k
    # equals column k.  While row k is unchanged from q (k is clean), pivot
    # k can lower d_ij only if fl(q_ik + q_kj) < q_ij: only if k is a
    # useful pivot of the slack-0 scan, and only in an active row, one with
    # a violation in q.  So a clean pivot runs on the active rows if it is
    # useful and is skipped if not; a dirty one runs on every row, since
    # a + (b + c) can round below (a + b) + c and lower a row that had no
    # violation.  Once every later row is dirty, no change needs tracking.
    active, useful = _scan(d, 0.0)
    if not active.any():
        return d
    n = d.shape[0]
    every_row = [slice(r, r + _SCAN_BLOCK) for r in range(0, n, _SCAN_BLOCK)]
    index = np.flatnonzero(active)
    active_rows = [index[r:r + _SCAN_BLOCK] for r in range(0, index.size, _SCAN_BLOCK)]
    buf = np.empty((min(_SCAN_BLOCK, n), n))
    lower = np.empty(buf.shape, dtype=bool)
    dirty = np.zeros(n, dtype=bool)
    for k in range(n):
        if dirty[k]:
            blocks = every_row
        elif useful[k]:
            blocks = active_rows
        else:
            continue
        _relax(d, k, blocks, buf, lower, None if dirty[k + 1:].all() else dirty)
    return d


def _chain_space(space: FiniteMetricSpace, labels: list[str],
                 quasimetric: np.ndarray) -> FiniteMetricSpace:
    # inverting at the point at infinity replaces it; anything else would add a second one
    if labels.count(INFINITY_LABEL) > 1:
        raise ValueError("space already contains a point at infinity")
    if space.n > MAX_POINTS:
        raise ValueError(f"{space.n} points exceed the closure cap of {MAX_POINTS}")
    return FiniteMetricSpace(labels, chain_metric(quasimetric), validate=False)


def invert_space(space: FiniteMetricSpace, base: int) -> FiniteMetricSpace:
    """Chain metric of the inversion at point index ``base``, as a labeled metric space.

    The input space may have at most ``MAX_POINTS`` points.  The raw
    quasimetric is :func:`inversion_quasimetric`.
    """
    quasimetric = inversion_quasimetric(space.dist, base)
    labels = [t for i, t in enumerate(space.labels) if i != base] + [INFINITY_LABEL]
    return _chain_space(space, labels, quasimetric)


def sphericalize_space(space: FiniteMetricSpace, base: int) -> FiniteMetricSpace:
    """Chain metric of the sphericalization at point index ``base``, as a
    labeled metric space.

    The input space may have at most ``MAX_POINTS`` points; the result has
    one point more.  The raw quasimetric is :func:`sphericalization_quasimetric`.
    """
    quasimetric = sphericalization_quasimetric(space.dist, base)
    return _chain_space(space, space.labels + [INFINITY_LABEL], quasimetric)


def from_group_arrays(alg: HTypeAlgebra, v: np.ndarray, z: np.ndarray) -> FiniteMetricSpace:
    """Gauge distance matrix of a coordinate sample."""
    n = v.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    dist = pairwise_gauge_dist(alg, v, z)
    off = ~np.eye(n, dtype=bool)
    collisions = np.argwhere((dist == 0.0) & off)
    if collisions.size:
        pairs = sorted({(min(int(i), int(j)), max(int(i), int(j))) for i, j in collisions})
        raise ValueError(f"duplicate points at distance zero: indices {pairs}")
    return FiniteMetricSpace([str(i) for i in range(n)], dist)


def shared_submatrices(a: FiniteMetricSpace, b: FiniteMetricSpace
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The distance matrices of two spaces on their shared labels, in the order of ``a``."""
    index_b = {label: i for i, label in enumerate(b.labels)}
    idx_a = [i for i, label in enumerate(a.labels) if label in index_b]
    idx_b = [index_b[a.labels[i]] for i in idx_a]
    return a.dist[np.ix_(idx_a, idx_a)], b.dist[np.ix_(idx_b, idx_b)]


# ---------------------------------------------------------------------------
# distance-matrix files

def save_space_csv(space: FiniteMetricSpace, path_or_file) -> None:
    """First row labels, then the matrix with round-trip float formatting."""

    def write(fh) -> None:
        csv.writer(fh).writerow(space.labels)
        dist = space.dist
        bits = dist.view(np.int64)
        n = dist.shape[0]
        # Each upper-triangle entry is formatted once: row i formats
        # d[i, i:] and hands d[i, j] on to row j, which writes it as d[j, i]
        # unless the two differ in their bits; row j then drops it.
        lower = [[] for _ in range(n)]
        for i in range(n):
            upper = format_floats(dist[i, i:])
            row = lower[i]
            lower[i] = None
            for j in np.flatnonzero(bits[i, :i] != bits[:i, i]).tolist():
                row[j] = format_float(dist[i, j])
            for later, text in zip(lower[i + 1:], upper[1:]):
                later.append(text)
            row.extend(upper)
            # float strings need no quoting: this is csv.writer's line, faster
            fh.write(",".join(row) + "\r\n")

    _write_text(path_or_file, write)


def _load_space_csv_rows(path) -> FiniteMetricSpace:
    """The field-by-field reader: every file ``load_space_csv`` does not parse
    as a plain numeric block ends here, with its result or its message."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            labels = next(reader)
        except StopIteration:
            raise ValueError(f"distance file {path} is empty") from None
        rows = []
        for row in reader:
            if not row:
                continue
            # a quoted label may span lines: number rows by line, not by record
            if len(row) != len(labels):
                raise ValueError(f"distance file {path}: row {reader.line_num} has {len(row)} "
                                 f"fields, expected {len(labels)}")
            try:
                rows.append([float(t) for t in row])
            except ValueError:
                raise ValueError(f"distance file {path}: row {reader.line_num} has a "
                                 "non-numeric field") from None
    if len(rows) != len(labels):
        raise ValueError(f"distance file {path}: {len(rows)} data rows do not match "
                         f"{len(labels)} labels")
    return FiniteMetricSpace(labels, np.asarray(rows))


def load_space_csv(path) -> FiniteMetricSpace:
    # The label row may hold quoted commas and newlines, so csv reads it;
    # numpy parses the rows below it.  numpy accepts a subset of what
    # ``float`` accepts (no underscores, quotes or non-ASCII digits), so any
    # failure, warning or shape mismatch goes to the field-by-field reader.
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            labels = next(csv.reader(fh))
        except StopIteration:
            return _load_space_csv_rows(path)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                dist = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):
            dist = None
    if dist is None or dist.shape != (len(labels), len(labels)):
        return _load_space_csv_rows(path)
    return FiniteMetricSpace(labels, dist)
