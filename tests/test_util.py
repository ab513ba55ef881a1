"""The one worker map, ``util._ordered_map``, which runs the triangle scan and
the chunks of ``verify_inversion``."""

import threading

import pytest

from heislab import util


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
