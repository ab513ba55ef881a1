"""The one worker map, ``util._ordered_map``, which runs the triangle scan and
the chunks of ``verify_inversion``, its default worker count, the one
seeded chunk map, ``util._sampled``, of the sampled estimators, the strict
JSON of the reports, and the static lists of the library functions that
seed a generator or call BLAS."""

import ast
import json
import os
import pickle
import select
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from heislab import finite_metric, hlie, inversion, util
from oracles import reject_constant


class Planted(Exception):
    """A job's own exception type, which the map must raise as it is."""


class NeedsTwo(Exception):
    """Pickles, but will not unpickle: its ``args`` hold one of two arguments."""

    def __init__(self, first, second):
        super().__init__(first)


def returns_a_lambda_at_2(j):
    return (lambda: j) if j == 2 else j


def raises_a_callback_at_1(j):
    """Job 1 raises an exception that will not pickle: an attribute of it is a lambda."""
    if j == 1:
        error = ValueError("with a callback")
        error.callback = lambda: None
        raise error
    return j


class TestOrderedMap:
    def test_results_keep_job_order_when_later_jobs_finish_first(self):
        # job 0 waits for a byte that job 3 writes, each in a worker of its own
        read, write = os.pipe()

        def job(j):
            if j == 0:
                assert select.select([read], [], [], 30)[0]
                assert os.read(read, 1) == b"3"
            done = time.monotonic_ns()
            if j == 3:
                os.write(write, b"3")
            return 10 * j, done

        try:
            results = util._ordered_map(job, range(4), 4)
        finally:
            os.close(read)
            os.close(write)
        assert [value for value, _ in results] == [0, 10, 20, 30]
        assert results[0][1] > results[3][1]

    @pytest.mark.parametrize("jobs, workers", [(3, 1), (1, 4), (0, 4)])
    def test_one_worker_or_one_job_runs_in_the_calling_thread(self, jobs, workers):
        threads = util._ordered_map(lambda j: threading.get_ident(), range(jobs), workers)
        assert threads == [threading.get_ident()] * jobs

    def test_workers_are_processes_of_their_own(self):
        pids = util._ordered_map(lambda j: os.getpid(), range(4), 2)
        assert pids[0] == pids[2] != pids[1] == pids[3]
        assert os.getpid() not in pids

    def test_without_fork_the_jobs_run_in_the_calling_thread(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert util._ordered_map(lambda j: (os.getpid(), threading.get_ident()),
                                 range(3), 3) == [(os.getpid(), threading.get_ident())] * 3

    @pytest.mark.parametrize("workers", [1, 3])
    def test_the_first_failing_job_raises(self, workers):
        def job(j):
            if j in (1, 3):
                raise ValueError(f"job {j}")
            return j

        with pytest.raises(ValueError, match="^job 1$"):
            util._ordered_map(job, range(5), workers)

    def test_the_first_failing_job_in_job_order_keeps_its_type(self):
        # at 3 workers, jobs 3, 4 and 5 fail in three workers; job 5 fails
        # first in time, and job 3 is the first in job order
        def job(j):
            if j == 3:
                time.sleep(0.2)
                raise Planted("three", j)
            if j == 4:
                raise KeyError("four")
            if j == 5:
                raise ValueError("five")
            return j

        with pytest.raises(Planted) as info:
            util._ordered_map(job, range(8), 3)
        assert info.value.args == ("three", 3)

    @pytest.mark.parametrize("job, message", [
        (returns_a_lambda_at_2, r"^job 2 of the map: its result will not pickle: "),
        (raises_a_callback_at_1,
         r"^job 1 of the map: its exception ValueError\('with a callback'\) will not pickle: "),
    ], ids=["result", "exception"])
    def test_what_will_not_pickle_names_its_job(self, job, message):
        with pytest.raises(pickle.PicklingError, match=message):
            util._ordered_map(job, range(4), 3)

    def test_an_exception_that_will_not_unpickle_names_its_job(self):
        def job(j):
            if j == 2:
                raise NeedsTwo("first", "second")
            return j

        with pytest.raises(pickle.UnpicklingError,
                           match=r"^job 2 of the map: its exception will not unpickle: "):
            util._ordered_map(job, range(4), 3)

    def test_a_worker_that_dies_raises(self):
        def job(j):
            if j == 1:
                os._exit(3)
            return j

        with pytest.raises(ChildProcessError, match="^the worker of jobs 1, 3, .. of the map "):
            util._ordered_map(job, range(4), 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_no_worker_is_left(self, fails):
        def job(j):
            if fails and j == 1:
                raise ValueError("job 1")
            return j

        try:
            util._ordered_map(job, range(3), 3)
        except ValueError:
            assert fails
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_interrupted_map_reaps_its_workers(self):
        # worker 1 interrupts the caller while worker 0 is still running
        def job(j):
            if j == 0:
                time.sleep(60)
            else:
                time.sleep(0.2)
                os.kill(os.getppid(), signal.SIGINT)
            return j

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            util._ordered_map(job, range(2), 2)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestCpuCount:
    def test_the_affinity_mask_when_there_is_one(self):
        if hasattr(os, "sched_getaffinity"):
            assert util._cpu_count() == len(os.sched_getaffinity(0))
        assert util._cpu_count() >= 1

    @pytest.mark.parametrize("cpus, expected", [(3, 3), (None, 1)])
    def test_the_machine_without_an_affinity_mask(self, monkeypatch, cpus, expected):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert util._cpu_count() == expected

    def test_default_workers_run_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        alg = hlie.algebra_from_name("H_C:1")
        report = inversion.verify_inversion(alg, samples=2 * util._CHUNK, seed=1)
        assert report.pairs_used == 2 * util._CHUNK
        dist = np.abs(np.subtract.outer(np.arange(200.0), np.arange(200.0)))
        assert finite_metric.validate_distance_matrix(dist) is None


C = util._CHUNK


class TestSampled:
    @staticmethod
    def chunk(count, rng):
        return count, rng.random(3).tobytes()

    @pytest.mark.parametrize("samples, sizes", [
        (1, [1]), (C - 1, [C - 1]), (C, [C]), (C + 1, [C, 1]), (3 * C, [C, C, C])])
    def test_chunk_sizes_and_streams(self, samples, sizes):
        children = np.random.SeedSequence(11).spawn(len(sizes))
        expected = [(size, np.random.default_rng(child).random(3).tobytes())
                    for size, child in zip(sizes, children)]
        for workers in (1, 2, 3):
            assert util._sampled(self.chunk, samples, 11, workers) == expected
            assert util._sampled(self.chunk, samples, np.random.SeedSequence(11),
                                 workers) == expected


class TestCanonicalJson:
    def test_non_finite_floats_are_strings(self):
        text = util.canonical_json({"a": [np.nan, np.inf], "b": {"c": (-np.inf, 1.5)}})
        assert json.loads(text, parse_constant=reject_constant) == {
            "a": ["NaN", "Infinity"], "b": {"c": ["-Infinity", 1.5]}}

    def test_finite_payloads_keep_their_bytes(self):
        payload = {"b": [1.0, 2, None, True, "x"], "a": {"z": 0.1, "y": (1e-300, -0.0)}}
        assert util.canonical_json(payload) == json.dumps(payload, sort_keys=True,
                                                          indent=2) + "\n"


# the functions that may make a generator or a seed: the chunk map, the
# per-radius seeds of two estimators, and two one-shot draws
SEEDING_SITES = {"util._sampled", "distortion.estimate_qc_ratio",
                 "distortion.estimate_regularity", "hgroup.sample_arrays",
                 "distortion.random_center"}


def library_sites(name_of) -> set:
    """``(module.function, name)`` of each node of the library's modules for
    which ``name_of(node)`` gives a name."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (name := name_of(child)) is not None:
                sites.add((".".join(scope), name))
            visit(child, scope)

    for path in sorted(Path(util.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    return sites


def seeding_call(node):
    """The name of a call of ``default_rng``, ``SeedSequence`` or ``.spawn``."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("default_rng", "SeedSequence", "spawn"):
            return name
    return None


def test_no_other_code_seeds_a_sampling_loop():
    assert {site for site, _ in library_sites(seeding_call)} == SEEDING_SITES


# the library's BLAS and LAPACK calls: the least-squares fit of the growth
# exponent, the exact J^2 cubic and its witness points, whose bits may depend
# on the BLAS build and its thread count.
BLAS_CALLERS = {("distortion.estimate_regularity", "np.linalg.lstsq"),
                ("distortion.estimate_regularity", "@"),
                ("hlie._j2_cubic", "@"),
                ("hlie._j2_cubic", "np.tensordot"),
                ("hlie.check_j2", "@")}


def blas_call(node):
    """``@`` or the name of a numpy matrix product or ``np.linalg`` call but ``norm``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Call):
        name = ast.unparse(node.func)
        if name in ("np.dot", "np.vdot", "np.inner", "np.matmul", "np.tensordot") or (
                name.startswith("np.linalg.") and name != "np.linalg.norm"):
            return name
    return None


def test_blas_callers_are_listed():
    assert library_sites(blas_call) == BLAS_CALLERS
