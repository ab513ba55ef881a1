"""Shared helpers: the report base, structure-constant fingerprints, canonical JSON,
the one text-file writer, the one worker map and its default worker count,
the one seeded chunk map of the sampled estimators, and the one check of a
verdict's tolerance.

``hashlib`` is imported by the one function that uses it, so that a command
that hashes nothing does not import it (numpy has imported ``pickle``)."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pickle

import numpy as np

__all__ = ["Report", "fingerprint_of_arrays", "canonical_json", "format_float", "format_floats"]


class Report:
    """Base of the report dataclasses: ``to_dict`` is the JSON payload, keyed by field name.

    Arrays become float lists; named tuples (an ``hgroup.Point`` gives
    ``{"v", "z"}``) and nested dataclasses become dicts; a non-finite float
    becomes the string ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``, as
    strict JSON has no such number.  A ``repr=False`` field stays out, and
    so does a field that defaults to None and is None.
    """

    def to_dict(self) -> dict:
        return _jsonable(self)


def _jsonable(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)
                if f.repr and not (f.default is None and getattr(value, f.name) is None)}
    if isinstance(value, np.ndarray):
        value = value.astype(np.float64).tolist()
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    return value


def fingerprint_of_arrays(*arrays: np.ndarray) -> str:
    """Short content hash of arrays (shape-aware), for replayable reports."""
    import hashlib
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.shape).encode())
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def canonical_json(payload: dict) -> str:
    """Deterministic strict JSON text: sorted keys, shortest round-trip floats,
    and values as ``Report.to_dict`` gives them (a non-finite float as a string)."""
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


def format_floats(values) -> list[str]:
    """``format_float`` of each element of a 1-d array, in bulk."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def _write_text(path_or_file, write) -> None:
    """Call ``write(fh)`` on an open text file, or on a path opened for writing
    as UTF-8 with no newline translation, so the bytes are those written."""
    if hasattr(path_or_file, "write"):
        write(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            write(fh)


def _cpu_count() -> int:
    """The CPUs this process may run on: the default count of the forked
    workers of every :func:`_ordered_map` caller.  Where the affinity mask
    cannot be read (macOS, Windows), the CPUs of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Private: a traced run wraps public names, and would parent worker spans to the map.
def _ordered_map(fn, jobs, workers: int) -> list:
    """``[fn(job) for job in jobs]`` on up to ``workers`` forked worker
    processes, in job order; in the calling thread for one worker or one
    job, or where there is no ``os.fork``.

    Worker w of W runs jobs w, w + W, .. in order and stops at its first
    exception.  It pickles its results, or that exception, to a pipe of its
    own and leaves by ``os._exit``, so it runs no atexit handler and
    flushes no inherited buffer; whatever else a job changes stays in its
    worker.  The exception of the first failing job in job order is raised
    here, and a result or an exception that will not pickle raises a
    ``pickle.PickleError`` that names its job; a worker that ends without
    writing its results raises ``ChildProcessError``.  Every worker is
    reaped before this returns or raises."""
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(job) for job in jobs]
    pids, reads, payloads = [], [], []
    try:
        for w in range(workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, list(enumerate(jobs))[w::workers], write)
                pids.append(pid)
            finally:
                os.close(write)
        for read in reads:
            with open(read, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        for read in reads:
            os.close(read)
        if len(payloads) < len(pids):  # interrupted: no result will be read
            import signal
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
    results, failures = {}, {}
    for w, payload in enumerate(payloads):
        if not payload:
            raise ChildProcessError(f"the worker of jobs {w}, {w + workers}, .. of the map "
                                    "ended without a result")
        blobs, failure = pickle.loads(payload)
        results.update(zip(range(w, len(jobs), workers), blobs))
        if failure is not None:
            failures[w + len(blobs) * workers] = failure
    if failures:
        first = min(failures)
        raise _unpickled(failures[first], first, "exception")
    return [_unpickled(results[j], j, "result") for j in range(len(jobs))]


def _work(fn, jobs, write: int):
    """The body of a forked worker of :func:`_ordered_map`: run the
    ``(index, job)`` pairs in order up to the first failure, write
    ``(pickled results, pickled exception or None)`` to the pipe ``write``,
    and leave the process."""
    status = 1
    try:
        blobs, failure = [], None
        for index, job in jobs:
            try:
                result = fn(job)
            except BaseException as exc:
                failure = _pickled(exc, index)
                break
            try:
                blobs.append(pickle.dumps(result))
            except Exception as error:
                failure = pickle.dumps(pickle.PicklingError(
                    f"job {index} of the map: its result will not pickle: {error!r}"))
                break
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps((blobs, failure)))
        status = 0
    finally:
        os._exit(status)


def _pickled(exc: BaseException, index: int) -> bytes:
    """``pickle.dumps(exc)``, or that of a ``PicklingError`` naming the job."""
    try:
        return pickle.dumps(exc)
    except Exception as error:
        return pickle.dumps(pickle.PicklingError(
            f"job {index} of the map: its exception {exc!r} will not pickle: {error!r}"))


def _unpickled(blob: bytes, index: int, what: str):
    """``pickle.loads(blob)``, or an ``UnpicklingError`` naming the job."""
    try:
        return pickle.loads(blob)
    except Exception as error:
        raise pickle.UnpicklingError(
            f"job {index} of the map: its {what} will not unpickle: {error!r}") from None


def _check_tol(tol: float) -> None:
    """Raise ValueError unless 0 <= tol < inf: a negative or NaN tolerance fails
    every residual, and an infinite one passes every finite residual."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol}")


# Samples per chunk of :func:`_sampled`, each evaluated in one pass of a few
# hundred whole-chunk ufunc calls, and each worker of :func:`_ordered_map`
# holds one chunk at a time.  The value is kept because every stream depends
# on it.  A chunk temporary of an algebra of 12 coordinates (H_H:3) is
# 16,384 x 12 x 8 B = 1.5 MiB, under the mmap threshold that ``cli.run``
# pins.  A chunk of ``verify_inversion`` holds at most two point sets of that
# size, p and q or their sigma images, which are written over them, besides
# its distance temporaries: a one-worker run on H_O (15 coordinates) peaks at
# 7.0 MiB traced.
_CHUNK = 16384


def _sampled(fn, samples: int, seed, workers: int = 1) -> list:
    """``fn(count, rng)`` on chunks of ``_CHUNK`` samples, the last one
    shorter, each with a generator of its own child spawned from ``seed``
    (an int or a ``SeedSequence``), on up to ``workers`` worker processes
    (:func:`_ordered_map`); the results in chunk order."""
    sizes = [min(_CHUNK, samples - start) for start in range(0, samples, _CHUNK)]
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return _ordered_map(lambda job: fn(job[0], np.random.default_rng(job[1])),
                        zip(sizes, seed.spawn(len(sizes))), workers)
