"""Inversion and sphericalization of finite metric spaces.

Starting from a labeled symmetric distance matrix and a base point p, the
inversion quasimetric is

    t_p(x, y) = d(x, y) / (d(x, p) d(y, p)),      t_p(x, inf) = 1 / d(x, p),

over the punctured point set plus an added point at infinity, and the
sphericalization quasimetric keeps every point and divides by
``(1 + d(., p))`` factors instead.  Both may violate the triangle
inequality; the chain metric (the largest metric below a quasimetric,
realized on a finite set by the all-pairs shortest-path closure of the
entry weights) repairs them.  For quasimetrics built from a genuine metric
the chain metric stays within the sandwich

    quasimetric / 4  <=  chain metric  <=  quasimetric,

entrywise, which the test suite checks exhaustively.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from heislab.hgroup import pairwise_gauge_dist
from heislab.hlie import HTypeAlgebra
from heislab.util import format_float

__all__ = [
    "INFINITY_LABEL",
    "FiniteMetricSpace",
    "BasedSpace",
    "validate_distance_matrix",
    "inversion_quasimetric",
    "inversion_labels",
    "sphericalization_quasimetric",
    "sphericalization_labels",
    "chain_metric",
    "invert_space",
    "sphericalize_space",
    "from_group_arrays",
    "shared_submatrices",
    "save_space_csv",
    "load_space_csv",
    "save_space_json",
    "load_space_json",
]

INFINITY_LABEL = "∞"

DEFAULT_SLACK = 1e-9
# Cap on the points of a space handed to the dense closure; the closed space
# has one point more (infinity) after sphericalization.
DEFAULT_MAX_POINTS = 2000


def validate_distance_matrix(dist: np.ndarray, slack: float = DEFAULT_SLACK) -> None:
    """Raise with the offending entry or triple if ``dist`` is not a metric."""
    dist = np.asarray(dist)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {dist.shape}")
    n = dist.shape[0]
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
    off = ~np.eye(n, dtype=bool)
    bad = np.argwhere((dist <= 0.0) & off)
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"non-positive off-diagonal distance at (i, j) = ({i}, {j}): "
                         f"{format_float(dist[i, j])}")
    # A violation at (i, j) with j < i is the mirror of one at (j, i), since
    # the matrix is exactly symmetric and float addition commutes; so the
    # first violating row has all its violating columns at j >= i, and only
    # those are scanned.  Row a of ``via`` holds d(j, k) + d(i, k) for j = i + a.
    for i in range(n):
        via = dist[i:] + dist[i]
        best = via.min(axis=1)
        bad_j = np.flatnonzero(dist[i, i:] > best + slack)
        if bad_j.size:
            a = int(bad_j[0])
            j = i + a
            k = int(np.argmin(via[a]))
            raise ValueError(
                f"triangle inequality violated at (i, k, j) = ({i}, {k}, {j}): "
                f"d(i,j) = {format_float(dist[i, j])} exceeds "
                f"d(i,k) + d(k,j) = {format_float(via[a, k])} "
                f"by {dist[i, j] - via[a, k]:.3e}"
            )


class FiniteMetricSpace:
    """A labeled point set with a validated symmetric distance matrix."""

    def __init__(self, labels, dist, contains_infinity: bool = False,
                 validate: bool = True, slack: float = DEFAULT_SLACK):
        labels = [str(t) for t in labels]
        dist = np.asarray(dist, dtype=np.float64).copy()
        if dist.shape != (len(labels), len(labels)):
            raise ValueError(f"{len(labels)} labels do not match matrix shape {dist.shape}")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        if validate:
            validate_distance_matrix(dist, slack)
        dist.setflags(write=False)
        self.labels = labels
        self.dist = dist
        self.contains_infinity = bool(contains_infinity)

    @property
    def n(self) -> int:
        return len(self.labels)

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise ValueError(f"unknown point label {label!r}") from None

    def __repr__(self) -> str:
        return f"FiniteMetricSpace(n={self.n}, contains_infinity={self.contains_infinity})"


@dataclass(frozen=True)
class BasedSpace:
    """A finite metric space with a distinguished base point."""

    space: FiniteMetricSpace
    base_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.base_index < self.space.n:
            raise ValueError(f"base index {self.base_index} out of range "
                             f"for {self.space.n} points")


def _inversion_quasimetric_matrix(dist: np.ndarray, base: int) -> np.ndarray:
    """The inversion-quasimetric formula applied to a raw symmetric matrix."""
    n = dist.shape[0]
    keep = [i for i in range(n) if i != base]
    to_base = dist[base, keep]
    if np.any(to_base == 0.0):
        offender = keep[int(np.argmax(to_base == 0.0))]
        raise ValueError(f"point {offender} is at distance zero from the base point")
    sub = dist[np.ix_(keep, keep)]
    out = np.zeros((n, n))
    out[:n - 1, :n - 1] = sub / np.outer(to_base, to_base)
    out[:n - 1, n - 1] = 1.0 / to_base
    out[n - 1, :n - 1] = 1.0 / to_base
    np.fill_diagonal(out, 0.0)
    return out


def inversion_quasimetric(based: BasedSpace) -> np.ndarray:
    """Quasimetric of the based inversion, over the punctured set plus infinity.

    Rows keep the original point order with the base point removed; the
    final row is the added point at infinity.  The output is symmetric with
    zero diagonal but may violate the triangle inequality.
    """
    return _inversion_quasimetric_matrix(based.space.dist, based.base_index)


def inversion_labels(based: BasedSpace) -> list[str]:
    labels = [t for i, t in enumerate(based.space.labels) if i != based.base_index]
    return labels + [INFINITY_LABEL]


def sphericalization_quasimetric(based: BasedSpace) -> np.ndarray:
    """Quasimetric of the based sphericalization, over all points plus infinity."""
    dist = based.space.dist
    n = dist.shape[0]
    weight = 1.0 + dist[based.base_index]
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = dist / np.outer(weight, weight)
    out[:n, n] = 1.0 / weight
    out[n, :n] = 1.0 / weight
    np.fill_diagonal(out, 0.0)
    return out


def sphericalization_labels(based: BasedSpace) -> list[str]:
    return list(based.space.labels) + [INFINITY_LABEL]


def chain_metric(quasimetric: np.ndarray) -> np.ndarray:
    """The largest metric below a quasimetric: its shortest-path closure.

    Input must be symmetric and nonnegative with zero diagonal and positive
    off-diagonal entries.  The closure is dense, O(n^3) in time and O(n^2)
    in memory; ``invert_space`` and ``sphericalize_space`` cap its size.
    """
    q = np.asarray(quasimetric, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"quasimetric must be a square matrix, got shape {q.shape}")
    bad = np.argwhere(q != q.T)
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"asymmetric quasimetric at (i, j) = ({i}, {j})")
    if np.any(np.diag(q) != 0.0):
        raise ValueError("quasimetric must have a zero diagonal")
    off = ~np.eye(q.shape[0], dtype=bool)
    if np.any((q <= 0.0) & off) or not np.all(np.isfinite(q)):
        raise ValueError("quasimetric entries must be positive and finite off the diagonal")
    # scipy costs about 0.3 s to import; only the commands that close a
    # metric should pay for it.
    from scipy.sparse.csgraph import floyd_warshall
    return np.asarray(floyd_warshall(q, directed=False))


def _chain_space(based: BasedSpace, quasimetric, labels, max_points: int, chain: bool
                 ) -> FiniteMetricSpace:
    names = labels(based)
    # inverting at the point at infinity replaces it; anything else would add a second one
    if names.count(INFINITY_LABEL) > 1:
        raise ValueError("space already contains a point at infinity")
    if not chain:
        return FiniteMetricSpace(names, quasimetric(based), contains_infinity=True,
                                 validate=False)
    if based.space.n > max_points:
        raise ValueError(f"{based.space.n} points exceed the closure cap of {max_points}")
    chained = chain_metric(quasimetric(based))
    return FiniteMetricSpace(names, chained, contains_infinity=True, validate=False)


def invert_space(based: BasedSpace, max_points: int = DEFAULT_MAX_POINTS,
                 chain: bool = True) -> FiniteMetricSpace:
    """Chain metric of the based inversion, as a labeled metric space.

    ``max_points`` caps the points of the input space.  With ``chain=False``
    the space carries the raw quasimetric, unvalidated and uncapped.
    """
    return _chain_space(based, inversion_quasimetric, inversion_labels, max_points, chain)


def sphericalize_space(based: BasedSpace, max_points: int = DEFAULT_MAX_POINTS,
                       chain: bool = True) -> FiniteMetricSpace:
    """Chain metric of the based sphericalization, as a labeled metric space.

    ``max_points`` caps the points of the input space; the result has one
    point more.  With ``chain=False`` the space carries the raw quasimetric,
    unvalidated and uncapped.
    """
    return _chain_space(based, sphericalization_quasimetric, sphericalization_labels,
                        max_points, chain)


def from_group_arrays(alg: HTypeAlgebra, v: np.ndarray, z: np.ndarray,
                      labels=None) -> FiniteMetricSpace:
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
    if labels is None:
        labels = [str(i) for i in range(n)]
    return FiniteMetricSpace(labels, dist)


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
        writer = csv.writer(fh)
        writer.writerow(space.labels)
        for row in space.dist:
            writer.writerow([format_float(x) for x in row])

    if hasattr(path_or_file, "write"):
        write(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            write(fh)


def load_space_csv(path, validate: bool = True, slack: float = DEFAULT_SLACK
                   ) -> FiniteMetricSpace:
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
    contains_infinity = bool(labels) and labels[-1] == INFINITY_LABEL
    return FiniteMetricSpace(labels, np.asarray(rows), contains_infinity,
                             validate=validate, slack=slack)


def save_space_json(space: FiniteMetricSpace, path_or_file) -> None:
    payload = {
        "labels": space.labels,
        "dist": [[float(x) for x in row] for row in space.dist],
        "contains_infinity": space.contains_infinity,
    }
    text = json.dumps(payload, indent=2) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        Path(path_or_file).write_text(text, encoding="utf-8")


def load_space_json(path, validate: bool = True, slack: float = DEFAULT_SLACK
                    ) -> FiniteMetricSpace:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed distance file {path}: {exc}") from None
    for key in ("labels", "dist"):
        if key not in data:
            raise ValueError(f"distance file {path} is missing the field {key!r}")
    contains_infinity = bool(data.get("contains_infinity",
                                      bool(data["labels"]) and
                                      data["labels"][-1] == INFINITY_LABEL))
    return FiniteMetricSpace(data["labels"], np.asarray(data["dist"], dtype=np.float64),
                             contains_infinity, validate=validate, slack=slack)
