"""The one worker map, ``util._ordered_map``, which runs the triangle scan and
the chunks of ``verify_inversion``, and its default worker count."""

import os
import threading

import numpy as np
import pytest

from heislab import finite_metric, hlie, inversion, util


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
        report = inversion.verify_inversion(alg, samples=2 * inversion._CHUNK, seed=1)
        assert report.pairs_used == 2 * inversion._CHUNK
        dist = np.abs(np.subtract.outer(np.arange(200.0), np.arange(200.0)))
        assert finite_metric.validate_distance_matrix(dist) is None
