"""Test oracles and fixtures: the bracket and the J-map of single vectors,
which the library evaluates only rowwise (``hlie.bracket_arrays``,
``hlie.apply_j_rows``), and an algebra-spec writer, which it does not need."""

import json
from pathlib import Path

import numpy as np

from heislab.hlie import HTypeAlgebra, bracket_arrays


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


def write_algebra_spec(alg: HTypeAlgebra, path) -> None:
    """An algebra-spec file {label, dim_v, dim_z, entries} with 1-based upper-triangle entries."""
    k, i, j = np.nonzero(alg.structure)
    entries = [[int(a) + 1, int(b) + 1, int(c) + 1, float(alg.structure[c, a, b])]
               for c, a, b in zip(k, i, j) if a < b]
    payload = {"label": alg.label, "dim_v": alg.dim_v, "dim_z": alg.dim_z, "entries": entries}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
