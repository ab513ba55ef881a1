"""Shared helpers: the report base, structure-constant fingerprints, canonical JSON
and the one worker map."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["Report", "fingerprint_of_arrays", "canonical_json", "format_float", "format_floats"]


class Report:
    """Base of the report dataclasses: ``to_dict`` is the JSON payload, keyed by field name.

    Arrays become float lists; named tuples (an ``hgroup.Point`` gives
    ``{"v", "z"}``) and nested dataclasses become dicts.  A ``repr=False``
    field stays out, and so does a field that defaults to None and is None.
    """

    def to_dict(self) -> dict:
        return _jsonable(self)


def _jsonable(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)
                if f.repr and not (f.default is None and getattr(value, f.name) is None)}
    if isinstance(value, np.ndarray):
        return value.astype(np.float64).tolist()
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def fingerprint_of_arrays(*arrays: np.ndarray) -> str:
    """Short content hash of arrays (shape-aware), for replayable reports."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.shape).encode())
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def canonical_json(payload: dict) -> str:
    """Deterministic JSON text: sorted keys, shortest round-trip floats."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


def format_floats(values) -> list[str]:
    """``format_float`` of each element of a 1-d array, in bulk."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


# Private: a traced run wraps public names, and would parent worker spans to the map.
def _ordered_map(fn, jobs, workers: int) -> list:
    """``[fn(job) for job in jobs]`` on up to ``workers`` threads, in job order;
    in the calling thread for one worker or one job.  The exception of the
    first failing job in job order is raised here."""
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))
