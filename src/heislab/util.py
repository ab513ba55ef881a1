"""Shared helpers: structure-constant fingerprints and canonical JSON."""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = ["fingerprint_of_arrays", "canonical_json", "format_float"]


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

