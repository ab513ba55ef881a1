"""The one worker map, ``util._ordered_map``, which runs the triangle scan and
the chunks of ``verify_inversion``, its default worker count, the one
seeded chunk map, ``util._sampled``, of the sampled estimators, the strict
JSON of the reports, and the static lists of the library functions that
seed a generator or call BLAS."""

import ast
import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from heislab import finite_metric, hlie, inversion, util
from oracles import reject_constant


class TestOrderedMap:
    def test_results_keep_job_order_when_later_jobs_finish_first(self):
        last_done = threading.Event()
        finished = []

        def job(j):
            if j == 0:
                assert last_done.wait(timeout=30)
            finished.append(j)
            if j == 3:
                last_done.set()
            return 10 * j

        assert util._ordered_map(job, range(4), 4) == [0, 10, 20, 30]
        assert finished[-1] == 0

    @pytest.mark.parametrize("jobs, workers", [(3, 1), (1, 4), (0, 4)])
    def test_one_worker_or_one_job_runs_in_the_calling_thread(self, jobs, workers):
        threads = util._ordered_map(lambda j: threading.get_ident(), range(jobs), workers)
        assert threads == [threading.get_ident()] * jobs

    @pytest.mark.parametrize("workers", [1, 3])
    def test_the_first_failing_job_raises(self, workers):
        def job(j):
            if j in (1, 3):
                raise ValueError(f"job {j}")
            return j

        with pytest.raises(ValueError, match="^job 1$"):
            util._ordered_map(job, range(5), workers)


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
