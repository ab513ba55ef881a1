"""Finite metric spaces: validation, inversion/sphericalization quasimetrics,
chain metrics with sandwich bounds, and distance-matrix files."""

import importlib.util
import io
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from heislab import finite_metric as fm
from heislab import hgroup, hlie, inversion, util
from heislab.cli import run
from heislab.util import format_float
from oracles import load_space_csv_rowloop, save_space_csv_rowwise, scan_rows_float64


def euclidean_space(count, dim, seed, labels=None):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(count, dim))
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    dist = np.triu(dist, 1)
    dist = dist + dist.T
    return fm.FiniteMetricSpace(labels or [str(i) for i in range(count)], dist)


def group_space(name, count, seed, radius=1.0):
    alg = hlie.algebra_from_name(name)
    v, z = hgroup.sample_arrays(alg, count, radius, seed)
    return fm.from_group_arrays(alg, v, z)


class TestValidation:
    def test_asymmetry_names_the_entry(self):
        dist = np.array([[0.0, 1.0], [1.5, 0.0]])
        with pytest.raises(ValueError, match=r"asymmetric distances at \(i, j\) = \(0, 1\)"):
            fm.validate_distance_matrix(dist)

    def test_nonzero_diagonal(self):
        dist = np.array([[0.0, 1.0], [1.0, 0.5]])
        with pytest.raises(ValueError, match="nonzero diagonal at i = 1"):
            fm.validate_distance_matrix(dist)

    def test_nonpositive_off_diagonal(self):
        dist = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="non-positive off-diagonal"):
            fm.validate_distance_matrix(dist)

    def test_triangle_violation_names_the_triple(self):
        dist = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match=r"triangle inequality violated at \(i, k, j\)"):
            fm.validate_distance_matrix(dist)

    def test_non_finite(self):
        dist = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            fm.validate_distance_matrix(dist)

    def test_slack_tolerates_rounding(self):
        dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0 + 1e-12, 1.0, 0.0]])
        dist = np.maximum(dist, dist.T)
        fm.validate_distance_matrix(dist)  # within the 1e-9 slack

    @pytest.mark.parametrize("rows, message", [
        ([[0.0, 1.0], [1.5, 0.0]], "asymmetric distances at (i, j) = (0, 1): 1.0 vs 1.5"),
        ([[0.0, 1.0], [1.0, 0.5]], "nonzero diagonal at i = 1: 0.5"),
        ([[0.0, -2.0], [-2.0, 0.0]],
         "non-positive off-diagonal distance at (i, j) = (0, 1): -2.0"),
        ([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]],
         "triangle inequality violated at (i, k, j) = (0, 1, 2): "
         "d(i,j) = 5.0 exceeds d(i,k) + d(k,j) = 2.0 by 3.000e+00"),
    ], ids=["asymmetric", "diagonal", "non-positive", "triangle"])
    def test_messages_show_plain_floats(self, rows, message):
        with pytest.raises(ValueError) as info:
            fm.validate_distance_matrix(np.array(rows))
        assert str(info.value) == message

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels do not match"):
            fm.FiniteMetricSpace(["a"], np.zeros((2, 2)))

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            fm.FiniteMetricSpace(["a", "a"], np.array([[0.0, 1.0], [1.0, 0.0]]))


def row_loop_validation_error(dist, slack=fm.DEFAULT_SLACK):
    """Triangle check over every (i, k, j), row by row: the reference.  The
    slack is relative: (i, k, j) violates when d(i, j) exceeds d(i, k) +
    d(k, j) by more than slack d(i, j)."""
    for i in range(dist.shape[0]):
        via = dist[i][:, None] + dist
        best = via.min(axis=0)
        bad_j = np.argwhere(dist[i] > best + slack * dist[i])
        if bad_j.size:
            j = int(bad_j[0][0])
            k = int(np.argmin(via[:, j]))
            return (f"triangle inequality violated at (i, k, j) = ({i}, {k}, {j}): "
                    f"d(i,j) = {format_float(dist[i, j])} exceeds "
                    f"d(i,k) + d(k,j) = {format_float(via[k, j])} "
                    f"by {dist[i, j] - via[k, j]:.3e}")
    return None


def validate_at(monkeypatch, dist, slack):
    """``validate_distance_matrix`` with ``slack`` in place of its one tolerance,
    ``DEFAULT_SLACK``."""
    monkeypatch.setattr(fm, "DEFAULT_SLACK", slack)
    fm.validate_distance_matrix(dist)


class TestScaleFreeValidation:
    """The relative tolerance gives the same verdict and triple at every
    power-of-two scale, and heislab reads back every matrix it writes."""

    EXPONENTS = [-400, -100, -30, 0, 30, 100, 400]

    @pytest.mark.parametrize("k", EXPONENTS)
    def test_violation_is_rejected_at_every_scale(self, k):
        dist = 2.0 ** k * np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match=r"^triangle inequality violated at "
                                             r"\(i, k, j\) = \(0, 1, 2\): "):
            fm.validate_distance_matrix(dist)

    @pytest.mark.parametrize("k", EXPONENTS)
    @pytest.mark.parametrize("name", ["H_C:1", "truncated_HH"])
    def test_written_maps_load_back(self, tmp_path, name, k):
        space = group_space(name, 60, seed=13)
        source = tmp_path / "domain.csv"
        fm.save_space_csv(fm.FiniteMetricSpace(space.labels, 2.0 ** k * space.dist), source)
        for command in ("sphericalize", "invert"):
            out = tmp_path / f"{command}.csv"
            assert run(["metric", command, "--input", str(source), "--output", str(out)]) == 0
            assert fm.load_space_csv(out).n == (61 if command == "sphericalize" else 60)


class TestTriangleScanAgainstRowLoop:
    """The half scan reports the same first witness as the full row loop."""

    @staticmethod
    def perturbed(rng, n, decimals):
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        noise = rng.uniform(0.5, 1.5, size=(n, n)) ** rng.integers(0, 3)
        dist = np.triu(dist * noise, 1)
        if decimals is not None:
            # rounded entries make exact ties among the candidate k
            dist = np.maximum(np.round(dist, decimals), 10.0 ** -decimals)
            dist = np.triu(dist, 1)
        return dist + dist.T

    @pytest.mark.parametrize("decimals", [None, 1, 2])
    def test_messages_match(self, monkeypatch, decimals):
        rng = np.random.default_rng(31 + (decimals or 0))
        violating = 0
        for _ in range(300):
            n = int(rng.integers(3, 12))
            dist = self.perturbed(rng, n, decimals)
            slack = float(rng.choice([0.0, 1e-9, 0.05]))
            expected = row_loop_validation_error(dist, slack)
            if expected is None:
                validate_at(monkeypatch, dist, slack)
                continue
            violating += 1
            with pytest.raises(ValueError) as info:
                validate_at(monkeypatch, dist, slack)
            assert str(info.value) == expected
        assert 50 < violating < 300

    def test_negative_slack_flags_the_first_pair(self, monkeypatch):
        # a relative slack of -1 makes every off-diagonal pair violate, and
        # the scan runs without its float32 pre-filter
        dist = self.perturbed(np.random.default_rng(4), 6, None)
        assert fm._coarse_copy(dist, -1.0) is None
        with pytest.raises(ValueError, match=r"^triangle inequality violated at "
                                             r"\(i, k, j\) = \(0, \d+, 1\): ") as info:
            validate_at(monkeypatch, dist, -1.0)
        assert str(info.value) == row_loop_validation_error(dist, -1.0)

    @staticmethod
    def scan_message(monkeypatch, dist, slack, workers):
        monkeypatch.setattr(fm, "_cpu_count", lambda: workers)
        try:
            validate_at(monkeypatch, dist, slack)
        except ValueError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("n", [127, 128, 129, 259])
    def test_sizes_around_the_block(self, monkeypatch, n):
        # violations planted at columns on both sides of the 128-row block
        # edges, in rows that fall to different workers
        rng = np.random.default_rng(n)
        edges = [j for j in (126, 127, 128, 129, 255, 256, n - 1) if j < n]
        outcomes = set()
        for trial in range(8):
            pts = rng.uniform(-1.0, 1.0, size=(n, 2))
            dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            if trial % 4 == 3:
                # rounded entries make exact ties among the candidate k
                dist = np.maximum(np.round(dist, 2), 0.01) - np.eye(n) * 0.01
            for _ in range(trial % 3):
                j = int(rng.choice(edges))
                i = int(rng.integers(0, j))
                dist[i, j] = dist[j, i] = 3.0 * dist[i, j] + 0.5
            slack = [0.0, 1e-9, 0.05][trial % 3]
            expected = row_loop_validation_error(dist, slack)
            outcomes.add(expected is None)
            for workers in (1, 2, 3):
                assert self.scan_message(monkeypatch, dist, slack, workers) == expected
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [129, 259])
    def test_smallest_row_wins_across_workers(self, monkeypatch, n):
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(n, 2))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        assert self.scan_message(monkeypatch, dist, fm.DEFAULT_SLACK, 2) is None
        # rows 101 and 102 fail; they belong to different workers for 2 and 3
        for i, j in ((102, n - 1), (101, 127), (n - 2, n - 1)):
            dist[i, j] = dist[j, i] = 3.0 * dist[i, j] + 1.0
        expected = row_loop_validation_error(dist)
        assert "(i, k, j) = (101, " in expected
        for workers in (1, 2, 3):
            assert self.scan_message(monkeypatch, dist, fm.DEFAULT_SLACK, workers) == expected

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        dist = euclidean_space(300, 2, seed=7).dist.copy()
        for i in (290, 171, 170, 169, 95):
            dist[i, 299] = dist[299, i] = 3.0 * dist[i, 299] + 1.0
        expected = row_loop_validation_error(dist)
        assert "(i, k, j) = (95, " in expected
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert self.scan_message(monkeypatch, dist, fm.DEFAULT_SLACK, 7) == expected
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def perfbench_tracer():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        return tracing.Tracer()

    def test_scan_threads_open_no_span(self, monkeypatch):
        # the traced benchmark fails on spans of worker threads it cannot parent
        monkeypatch.setattr(fm, "_cpu_count", lambda: 2)
        tracer = self.perfbench_tracer()
        tracer.install()
        try:
            fm.FiniteMetricSpace([str(i) for i in range(300)], euclidean_space(300, 2, 6).dist)
        finally:
            tracer.uninstall()
        root = threading.get_ident()
        assert {span[6] for span in tracer.spans} == {root}
        assert tracer.worker_parents() == set()

    def test_verify_threads_parent_their_spans_to_verify(self):
        # the traced benchmark allows worker-thread spans under verify_inversion
        # only, so the worker map must stay untraced
        tracer = self.perfbench_tracer()
        tracer.install()
        try:
            inversion.verify_inversion(hlie.algebra_from_name("H_C:1"),
                                       samples=2 * util._CHUNK + 100, seed=3, threads=2)
        finally:
            tracer.uninstall()
        root = threading.get_ident()
        assert {span[6] for span in tracer.spans} - {root}
        assert tracer.worker_parents() == {"inversion.verify_inversion"}


class TestInversionQuasimetric:
    def test_collinear_example(self):
        # points {p=0, 1, 2} on the line
        space = fm.FiniteMetricSpace(["p", "a", "b"],
                                     [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        t = fm.inversion_quasimetric(space.dist, 0)
        assert fm.invert_space(space, 0).labels == ["a", "b", fm.INFINITY_LABEL]
        assert t[0, 1] == pytest.approx(0.5)   # t_p(a, b) = 1 / (1 * 2)
        assert t[0, 2] == pytest.approx(1.0)   # t_p(a, inf) = 1 / d(a, p)
        assert t[1, 2] == pytest.approx(0.5)   # t_p(b, inf)
        assert np.array_equal(np.diag(t), np.zeros(3))
        assert np.array_equal(t, t.T)

    def test_scaling_homogeneity(self):
        space = euclidean_space(20, 3, seed=1)
        t = fm.inversion_quasimetric(space.dist, 4)
        t_scaled = fm.inversion_quasimetric(3.0 * space.dist, 4)
        assert np.allclose(t_scaled, t / 3.0, atol=1e-15)

    def test_zero_distance_to_base(self):
        dist = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="distance zero from the base"):
            fm.inversion_quasimetric(dist, 0)

    def test_base_index_range(self):
        space = euclidean_space(5, 2, seed=2)
        for space_map in (fm.invert_space, fm.sphericalize_space):
            for base in (-1, 5):
                with pytest.raises(ValueError, match=f"base index {base} out of range"):
                    space_map(space, base)


class TestSphericalization:
    def test_base_to_infinity_is_one(self):
        space = euclidean_space(10, 3, seed=3)
        s = fm.sphericalization_quasimetric(space.dist, 2)
        assert s[2, 10] == pytest.approx(1.0)  # 1 / (1 + d(p, p))
        assert fm.sphericalize_space(space, 2).labels == space.labels + [fm.INFINITY_LABEL]

    def test_far_points_approach_infinity(self):
        dist = np.array([[0.0, 1000.0], [1000.0, 0.0]])
        space = fm.FiniteMetricSpace(["p", "far"], dist)
        s = fm.sphericalization_quasimetric(space.dist, 0)
        assert s[1, 2] == pytest.approx(1.0 / 1001.0)

    def test_diameter_bounds_on_euclidean_sample(self):
        space = euclidean_space(100, 3, seed=4)
        s = fm.sphericalization_quasimetric(space.dist, 0)
        d_hat = fm.chain_metric(s)
        off = ~np.eye(s.shape[0], dtype=bool)
        assert np.max(d_hat) <= 1.0 + 1e-12
        assert np.max(d_hat) >= 0.25 * np.max(s)
        assert np.all(d_hat[off] >= 0.25 * s[off] - 1e-15)
        assert np.all(d_hat[off] <= s[off] + 1e-15)


class TestChainMetric:
    def test_metric_is_left_unchanged(self):
        space = euclidean_space(30, 3, seed=5)
        out = fm.chain_metric(space.dist)
        assert np.allclose(out, space.dist, atol=1e-15)

    def test_single_violation_is_replaced_by_two_hops(self):
        q = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        out = fm.chain_metric(q)
        assert out[0, 2] == pytest.approx(2.0)
        assert out[0, 1] == pytest.approx(1.0)

    def test_output_is_a_metric_below_the_input(self, monkeypatch):
        rng = np.random.default_rng(6)
        n = 40
        q = rng.uniform(0.5, 2.0, size=(n, n))
        q = np.triu(q, 1)
        q = q + q.T
        out = fm.chain_metric(q)
        # every entry lies in [0.5, 2], so the relative 5e-13 allows at most 1e-12
        validate_at(monkeypatch, out, 5e-13)
        assert np.all(out <= q + 1e-15)

    def test_asymmetric_input_rejected(self):
        q = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="asymmetric"):
            fm.chain_metric(q)

    def test_nonzero_diag_rejected(self):
        q = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="zero diagonal"):
            fm.chain_metric(q)

    @pytest.mark.parametrize("rows", [
        [[0.0, 1.0, 2.0]],
        [[0.0, np.inf], [np.inf, 0.0]],
        [[0.0, 1.0], [2.0, 0.0]],
        [[1.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0], [-1.0, 0.0]],
    ], ids=["shape", "non-finite", "asymmetric", "diagonal", "non-positive"])
    def test_entry_errors_match_validation(self, rows):
        q = np.array(rows)
        with pytest.raises(ValueError) as expected:
            fm.validate_distance_matrix(q)
        with pytest.raises(ValueError) as info:
            fm.chain_metric(q)
        assert str(info.value) == str(expected.value)

    def test_point_cap(self, monkeypatch):
        # the cap counts the points of the input space, checked before closing
        space = euclidean_space(5, 2, seed=2)
        monkeypatch.setattr(fm, "MAX_POINTS", 5)
        assert fm.sphericalize_space(space, 0).n == 6
        assert fm.invert_space(space, 0).n == 5
        monkeypatch.setattr(fm, "MAX_POINTS", 4)
        with pytest.raises(ValueError, match="5 points exceed the closure cap of 4"):
            fm.sphericalize_space(space, 0)
        with pytest.raises(ValueError, match="5 points exceed the closure cap of 4"):
            fm.invert_space(space, 0)

    def test_determinism(self):
        space = euclidean_space(50, 2, seed=7)
        a = fm.chain_metric(fm.inversion_quasimetric(space.dist, 0))
        b = fm.chain_metric(fm.inversion_quasimetric(space.dist, 0))
        assert a.tobytes() == b.tobytes()


def scipy_closure(q):
    """The reference closure: scipy's compiled Floyd–Warshall."""
    from scipy.sparse.csgraph import floyd_warshall
    return floyd_warshall(q, directed=False)


def non_metric(rng, n, kind):
    """A random symmetric matrix with zero diagonal that violates the triangle inequality."""
    if kind == "dense":
        upper = rng.uniform(0.01, 1.0, size=(n, n))
    elif kind == "path":
        # a line with every pair stretched: shortest paths run through many points
        x = np.arange(n, dtype=float)
        upper = np.abs(x[:, None] - x) * rng.uniform(1.0, 3.0, size=(n, n))
    elif kind == "ties":
        # one decimal: many equal entries and equal two-hop sums
        upper = np.maximum(np.round(rng.uniform(0.0, 1.0, size=(n, n)), 1), 0.1)
    elif kind == "spread":
        upper = rng.exponential(1.0, size=(n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, n))
        upper = np.maximum(upper, 1e-9)
    else:
        # a Euclidean metric with a few stretched entries: sparse violations
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
        upper = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        for _ in range(max(1, n // 2)):
            i, j = rng.integers(0, n, size=2)
            upper[min(i, j), max(i, j)] *= 3.0
    upper = np.triu(upper, 1)
    return upper + upper.T


KINDS = ["dense", "path", "ties", "spread", "planted"]


class TestChainMetricAgainstScipy:
    """The numpy closure is scipy's Floyd–Warshall, bit for bit."""

    @staticmethod
    def closed(q):
        out = fm.chain_metric(q)
        assert out.tobytes() == scipy_closure(q).tobytes()
        return out

    @pytest.mark.parametrize("make", [fm.inversion_quasimetric, fm.sphericalization_quasimetric])
    @pytest.mark.parametrize("name", ["H_C:1", "H_H:2", "H_O", "truncated_HH"])
    def test_gauge_samples(self, monkeypatch, name, make):
        q = make(group_space(name, 300, seed=11).dist, 0)
        out = self.closed(q)
        validate_at(monkeypatch, out, 0.0)
        # the sphericalization lowers the pair (base, infinity) by rounding;
        # the inversion changes entries only on the group without J^2
        changed = int(np.count_nonzero(out != q))
        if make is fm.sphericalization_quasimetric:
            assert changed == 2
        else:
            assert (changed > 0) == (name == "truncated_HH")

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_non_metrics(self, monkeypatch, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        for n in (5, 17, 60, 150):
            q = non_metric(rng, n, kind)
            out = self.closed(q)
            assert np.any(out < q)
            # Floyd–Warshall sums a path in the order its pivots meet it, so a
            # closed entry can exceed another two-hop sum by an ulp; relative
            # to the largest entry, this allows at most 4 of its ulps anywhere
            validate_at(monkeypatch, out, 4 * np.spacing(out.max()) / out.max())

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 259])
    def test_sizes_around_the_block(self, monkeypatch, n, workers):
        monkeypatch.setattr(fm, "_cpu_count", lambda: workers)
        rng = np.random.default_rng(n)
        for kind in KINDS:
            self.closed(non_metric(rng, n, kind))

    def test_negative_zero_diagonal(self):
        q = non_metric(np.random.default_rng(8), 40, "planted")
        np.fill_diagonal(q, -0.0)
        assert not np.signbit(np.diag(self.closed(q))).any()

    def test_rounding_lowers_a_row_without_violation(self):
        # In exact arithmetic only the rows that violate in q and the pivots
        # of their violations matter.  In floats a + (b + c) can round below
        # (a + b) + c: pivot 0 lowers d(1, 3) to b + c, and pivot 1, neither
        # useful in q nor run on an active row, lowers d(2, 3) of row 2,
        # which had no violation.
        rng = np.random.default_rng(9)
        a, b, c = next(t for t in rng.uniform(0.1, 1.0, size=(1000, 3)).tolist()
                       if t[0] + (t[1] + t[2]) < (t[0] + t[1]) + t[2])
        q = np.array([[0.0, b, a + b, c],
                      [b, 0.0, a, 10.0],
                      [a + b, a, 0.0, (a + b) + c],
                      [c, 10.0, (a + b) + c, 0.0]])
        assert all(q[2, j] <= q[2, k] + q[k, j] for k in range(4) for j in range(4))
        out = self.closed(q)
        assert out[2, 3] == a + (b + c) < q[2, 3]

    def test_metric_comes_back_unchanged_without_a_pivot(self, monkeypatch):
        pivots = []
        monkeypatch.setattr(fm, "_relax", lambda d, k, *rest: pivots.append(k))
        for q in (euclidean_space(300, 3, seed=4).dist,
                  fm.inversion_quasimetric(group_space("H_C:1", 300, seed=11).dist, 0)):
            out = self.closed(q)
            assert out.tobytes() == q.tobytes()
        assert pivots == []

    def test_few_violations_run_few_pivots(self, monkeypatch):
        pivots = []
        relax = fm._relax
        monkeypatch.setattr(fm, "_relax", lambda d, k, *rest: (pivots.append(k),
                                                                relax(d, k, *rest)))
        self.closed(fm.sphericalization_quasimetric(group_space("H_C:1", 300, seed=11).dist, 0))
        assert 0 < len(pivots) < 150


HEISENBERG_NAMES = ["H_R:5", "H_C:1", "H_C:3", "H_H:1", "H_H:2", "H_O"]
SCAN_ROWS = fm._scan_rows


def float64_scan(*args, coarse=None):
    return scan_rows_float64(*args)


def two_hop(dist, i, j):
    """The smallest d(i, k) + d(k, j) over k not in {i, j}, as the scan sums it."""
    via = dist[j] + dist[i]
    via[[i, j]] = np.inf
    return via.min()


class TestScanAgainstFloat64Scan:
    """The float32 pre-filter leaves the marks of every scan, the messages of
    validation and the closures as the float64 scan gives them, bit for bit."""

    @staticmethod
    def outcomes(monkeypatch, dist, slack, workers, scan):
        monkeypatch.setattr(fm, "_cpu_count", lambda: workers)
        monkeypatch.setattr(fm, "_scan_rows", scan)
        n = dist.shape[0]
        bad, pivots = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        scan(dist, slack, range(n), bad, pivots, coarse=fm._coarse_copy(dist, slack))
        marks = bad.tobytes(), pivots.tobytes()
        try:
            validate_at(monkeypatch, dist, slack)
            message = None
        except ValueError as exc:
            message = str(exc)
        return marks, message, fm.chain_metric(dist).tobytes()

    def check(self, monkeypatch, dist):
        """Compare both scans at slack 0 and 1e-9 on 1 and 2 workers; return
        the messages at slack 0."""
        for slack in (0.0, 1e-9):
            for workers in (1, 2):
                expected = self.outcomes(monkeypatch, dist, slack, workers, float64_scan)
                got = self.outcomes(monkeypatch, dist, slack, workers, SCAN_ROWS)
                assert got == expected
                if slack == 0.0:
                    message = got[1]
        return message

    @pytest.mark.parametrize("name", HEISENBERG_NAMES + ["truncated_HH"])
    def test_gauge_matrices_and_their_quasimetrics(self, monkeypatch, name):
        dist = group_space(name, 150, seed=11).dist
        for make in (fm.inversion_quasimetric, fm.sphericalization_quasimetric):
            q = make(dist, 0)
            for matrix in (q, fm.chain_metric(q)):
                assert fm._coarse_copy(matrix, 0.0) is not None
                self.check(monkeypatch, matrix)
        assert self.check(monkeypatch, dist) is None

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_non_metrics(self, monkeypatch, kind):
        rng = np.random.default_rng(40 + KINDS.index(kind))
        for n in (17, 150):
            assert self.check(monkeypatch, non_metric(rng, n, kind)) is not None

    @pytest.mark.parametrize("ulps", [0, 1])
    def test_planted_two_hop_sums(self, monkeypatch, ulps):
        # d(i, j) set to its smallest two-hop sum (an exact equality, no
        # violation at slack 0) or 1 ulp above it (a violation by 1 ulp)
        dist = euclidean_space(150, 2, seed=41).dist.copy()
        for i, j in ((0, 149), (3, 140), (100, 101), (127, 128)):
            value = two_hop(dist, i, j)
            for _ in range(ulps):
                value = np.nextafter(value, np.inf)
            dist[i, j] = dist[j, i] = value
        message = self.check(monkeypatch, dist)
        assert (message is None) == (ulps == 0)
        if ulps:
            assert message.startswith("triangle inequality violated at (i, k, j) = (0, ")
            assert message.endswith("by 2.220e-16")

    @pytest.mark.parametrize("entry", [2.0 ** -101, 2.0 ** 101, 1e-40, 1e-300, 1e300])
    def test_entries_outside_the_guard(self, monkeypatch, entry):
        for scaled in (False, True):
            dist = euclidean_space(150, 2, seed=42).dist.copy()
            if scaled:  # the metric scaled to the extreme entry, with a 1-ulp violation
                dist *= entry / (dist.max() if entry > 1.0 else dist[dist > 0.0].min())
                dist[3, 140] = dist[140, 3] = np.nextafter(two_hop(dist, 3, 140), np.inf)
            else:  # one entry moved out of the range
                dist[7, 140] = dist[140, 7] = entry
            assert fm._coarse_copy(dist, 0.0) is None
            assert self.check(monkeypatch, dist) is not None

    def test_guard_range_and_slack(self):
        dist = euclidean_space(150, 2, seed=43).dist.copy()
        dist[7, 140] = dist[140, 7] = 2.0 ** -100
        dist[8, 141] = dist[141, 8] = 2.0 ** 100
        assert fm._coarse_copy(dist, 0.0) is not None
        assert fm._coarse_copy(dist, -1e-9) is None
        assert fm._coarse_copy(dist, np.nan) is None
        assert fm._coarse_copy(dist.astype(np.float32), 0.0) is None

    def test_float64_block_runs_only_where_a_violation_can_be(self, monkeypatch):
        calls = []
        block = fm._exact_block
        monkeypatch.setattr(fm, "_exact_block",
                            lambda *args: (calls.append(args[2]), block(*args))[1])
        dist = group_space("H_C:1", 300, seed=11).dist.copy()
        fm.validate_distance_matrix(dist)
        assert calls == []
        dist[5, 250] = dist[250, 5] = 3.0 * dist[5, 250] + 1.0
        with pytest.raises(ValueError, match=r"\(i, k, j\) = \(5, "):
            fm.validate_distance_matrix(dist)
        assert 5 in calls


class TestSandwich:
    @pytest.mark.parametrize("make", [
        lambda: group_space("H_C:1", 200, seed=8),
        lambda: euclidean_space(200, 3, seed=9),
    ], ids=["H_C:1", "euclidean_R3"])
    def test_inversion_sandwich_is_exhaustive(self, make):
        space = make()
        q = fm.inversion_quasimetric(space.dist, 0)
        chained = fm.chain_metric(q)
        off = ~np.eye(q.shape[0], dtype=bool)
        assert np.all(chained[off] >= 0.25 * q[off] - 1e-15)
        assert np.all(chained[off] <= q[off] + 1e-15)

    @pytest.mark.parametrize("make", [
        lambda: group_space("H_C:1", 200, seed=10),
        lambda: euclidean_space(200, 3, seed=11),
    ], ids=["H_C:1", "euclidean_R3"])
    def test_sphericalization_sandwich_is_exhaustive(self, make):
        space = make()
        s = fm.sphericalization_quasimetric(space.dist, 0)
        chained = fm.chain_metric(s)
        off = ~np.eye(s.shape[0], dtype=bool)
        assert np.all(chained[off] >= 0.25 * s[off] - 1e-15)
        assert np.all(chained[off] <= s[off] + 1e-15)


class TestQuasimetricInvolution:
    def test_rebased_double_inversion_preserves_cross_ratios(self):
        # invert at p, re-base the quasimetric at some q, invert again: the
        # d(. , base) factors cancel, so quadruple cross-ratios persist
        space = euclidean_space(40, 3, seed=12)
        t_p = fm.inversion_quasimetric(space.dist, 0)
        t_pq = fm.inversion_quasimetric(t_p, 5)
        rng = np.random.default_rng(13)

        def cross(dist, a, b, c, d):
            return dist[a, b] * dist[c, d] / (dist[a, c] * dist[b, d])

        # map original index -> row of t_p (base dropped) -> row of t_pq
        worst = 0.0
        for _ in range(500):
            quad = rng.choice(np.arange(1, 40), size=4, replace=False)
            rows_tp = quad - 1
            rows_tpq = np.array([r - 1 if r > 5 else r for r in rows_tp])
            if np.any(rows_tp == 5):
                continue  # skip the second base point
            original = cross(space.dist, *quad)
            twice = cross(t_pq, *rows_tpq)
            worst = max(worst, abs(twice / original - 1.0))
        assert worst <= 1e-9


class TestGroupSamples:
    def test_two_point_matrix(self):
        alg = hlie.algebra_from_name("H_C:1")
        # the identity and a point at gauge 1 from it
        space = fm.from_group_arrays(alg, np.array([[0.0, 0.0], [2.0, 0.0]]), np.zeros((2, 1)))
        assert np.allclose(space.dist, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_abelian_sample_is_scaled_euclidean(self):
        # gauge((x, 0)) = |x| / 2, so the matrix is half the Euclidean one
        alg = hlie.algebra_from_name("H_R:2")
        rng = np.random.default_rng(14)
        v = rng.uniform(-1, 1, size=(50, 2))
        space = fm.from_group_arrays(alg, v, np.zeros((50, 0)))
        euclid = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=2)
        assert np.allclose(space.dist, euclid / 2.0, atol=1e-14)

    def test_duplicates_are_reported_with_indices(self):
        alg = hlie.algebra_from_name("H_C:1")
        v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        z = np.zeros((3, 1))
        with pytest.raises(ValueError, match=r"indices \[\(0, 2\)\]"):
            fm.from_group_arrays(alg, v, z)

    def test_minimum_count(self):
        alg = hlie.algebra_from_name("H_C:1")
        with pytest.raises(ValueError, match="at least two"):
            fm.from_group_arrays(alg, np.array([[1.0, 0.0]]), np.zeros((1, 1)))

    def test_quaternionic_sample_validates(self):
        space = group_space("H_H:1", 120, seed=15)
        fm.validate_distance_matrix(space.dist)  # exhaustive triple check


class TestFiles:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        space = group_space("H_C:1", 40, seed=16)
        path = tmp_path / "dist.csv"
        fm.save_space_csv(space, path)
        loaded = fm.load_space_csv(path)
        assert loaded.labels == space.labels
        assert loaded.dist.tobytes() == space.dist.tobytes()
        assert not loaded.contains_infinity

    def test_infinity_label_detected_in_csv(self, tmp_path):
        space = group_space("H_C:1", 30, seed=18)
        spherical = fm.sphericalize_space(space, 0)
        path = tmp_path / "sph.csv"
        fm.save_space_csv(spherical, path)
        assert fm.load_space_csv(path).contains_infinity

    def test_csv_row_width_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.0,1.0\n1.0\n")
        with pytest.raises(ValueError, match="row 3"):
            fm.load_space_csv(path)

    def test_csv_row_numbers_count_lines_of_quoted_labels(self, tmp_path):
        # the label row spans lines 1-2, so the short row is on line 4
        path = tmp_path / "bad.csv"
        path.write_text('"a\nx",b\n0,1\n1\n', encoding="utf-8")
        with pytest.raises(ValueError, match="row 4 has 1 fields, expected 2"):
            fm.load_space_csv(path)

    def test_csv_non_numeric_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.0,x\nx,0.0\n")
        with pytest.raises(ValueError, match="non-numeric"):
            fm.load_space_csv(path)

    def test_csv_validation_applies(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.0,1.0\n2.0,0.0\n")
        with pytest.raises(ValueError, match="asymmetric"):
            fm.load_space_csv(path)

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            fm.load_space_csv(path)


class TestCsvWriterAgainstRowwise:
    """The writer formats each symmetric pair once, and writes the bytes of
    csv.writer over every entry."""

    @staticmethod
    def assert_same_bytes(space, tmp_path):
        expected, written = io.StringIO(), io.StringIO()
        save_space_csv_rowwise(space, expected)
        fm.save_space_csv(space, written)
        assert written.getvalue() == expected.getvalue()
        save_space_csv_rowwise(space, tmp_path / "expected.csv")
        fm.save_space_csv(space, tmp_path / "written.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        return written.getvalue()

    @pytest.mark.parametrize("name, count", [("H_C:1", 2), ("H_C:1", 150), ("H_H:2", 60),
                                             ("H_O", 40)])
    def test_gauge_matrices(self, tmp_path, name, count):
        space = group_space(name, count, seed=40)
        self.assert_same_bytes(space, tmp_path)
        self.assert_same_bytes(fm.sphericalize_space(space, 1), tmp_path)
        raw = fm.inversion_quasimetric(space.dist, 0)
        labels = space.labels[1:] + [fm.INFINITY_LABEL]
        self.assert_same_bytes(fm.FiniteMetricSpace(labels, raw, validate=False), tmp_path)

    def test_empty_and_one_point_spaces(self, tmp_path):
        space = fm.FiniteMetricSpace([], np.zeros((0, 0)))
        assert self.assert_same_bytes(space, tmp_path) == "\r\n"
        space = fm.FiniteMetricSpace(["p"], [[0.0]])
        assert self.assert_same_bytes(space, tmp_path) == "p\r\n0.0\r\n"

    def test_negative_zero_diagonal(self, tmp_path):
        dist = euclidean_space(7, 2, seed=41).dist.copy()
        dist[[0, 3, 6], [0, 3, 6]] = -0.0
        space = fm.FiniteMetricSpace([str(i) for i in range(7)], dist)
        text = self.assert_same_bytes(space, tmp_path)
        assert text.count("-0.0") == 3

    def test_asymmetric_raw_space(self, tmp_path):
        rng = np.random.default_rng(42)
        dist = rng.uniform(0.5, 2.0, size=(30, 30))
        dist[np.triu_indices(30, 1)] = dist.T[np.triu_indices(30, 1)]
        dist[4, 9] = -dist[9, 4]             # differ in the sign only
        dist[5, 2], dist[2, 5] = 0.0, -0.0   # equal values, different bits
        dist[7, 1] = np.inf
        dist[1, 8], dist[8, 1] = np.nan, -np.nan
        dist[10, 20] = np.nextafter(dist[20, 10], 3.0)
        space = fm.FiniteMetricSpace([str(i) for i in range(30)], dist, validate=False)
        self.assert_same_bytes(space, tmp_path)

    def test_labels_needing_quotes(self, tmp_path):
        labels = ["a,b", 'say "hi"', "line\nbreak", "cr\r\nlf", " lead", "", fm.INFINITY_LABEL]
        space = fm.FiniteMetricSpace(labels, euclidean_space(7, 3, seed=43).dist)
        self.assert_same_bytes(space, tmp_path)
        loaded = fm.load_space_csv(tmp_path / "written.csv")
        assert loaded.labels == labels
        assert loaded.dist.tobytes() == space.dist.tobytes()


# Files on which the numpy parser and the field-by-field reader may part ways.
CSV_CORPUS = {
    "plain": "a,b,c\n0,1,1.5\n1,0,1\n1.5,1,0\n",
    "underscores": "a,b\n0,1_0\n1_0,0\n",
    "quoted_numbers": 'a,b\n0,"1"\n"1",0\n',
    "padded": "a,b\n 0 , 1 \n\t1, 0\t\n",
    "blank_lines": "a,b\n\n0,1\n\n\n1,0\n\n",
    "whitespace_line": "a,b\n0,1\n  \n1,0\n",
    "whitespace_line_one_label": "a\n0\n \n",
    "hash_comment": "a,b\n0,1 # c\n1,0\n",
    "hash_line": "a,b\n# c\n0,1\n1,0\n",
    "nan": "a,b\nnan,1\n1,0\n",
    "inf": "a,b\n0,inf\ninf,0\n",
    "hex": "a,b\n0,0x1p0\n0x1p0,0\n",
    "unicode_digits": "a,b\n0,\u0661\n\u0661,0\n",
    "lf": "a,b\n0,2.5\n2.5,0\n",
    "crlf": "a,b\r\n0,2.5\r\n2.5,0\r\n",
    "cr": "a,b\r0,2.5\r2.5,0\r",
    "no_final_newline": "a,b\n0,2.5\n2.5,0",
    "multiline_label": '"a\nx",b\n0,1\n1,0\n',
    "short_row": "a,b\n0,1\n1\n",
    "short_rows": "a,b,c\n0,1\n1,0\n",
    "long_row": "a,b\n0,1,2\n1,0,2\n",
    "empty_field": "a,b\n0,\n1,0\n",
    "trailing_comma": "a,b\n0,1,\n1,0,\n",
    "labels_only": "a,b\n",
    "labels_only_no_newline": "a,b",
    "empty_file": "",
    "blank_label_row": "\n0\n",
    "extra_row": "a,b\n0,1\n1,0\n1,0\n",
    "asymmetric": "a,b\n0,1\n2,0\n",
    "triangle": "a,b,c\n0,1,5\n1,0,1\n5,1,0\n",
    "duplicate_labels": "a,a\n0,1\n1,0\n",
}


def load_outcome(load, path):
    try:
        space = load(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return space.labels, space.dist.tobytes()


class TestCsvLoaderAgainstRowLoop:
    """numpy parses plain files; every other file gets the row loop's result or message."""

    @pytest.mark.parametrize("name", sorted(CSV_CORPUS))
    def test_corpus(self, tmp_path, name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(CSV_CORPUS[name].encode("utf-8"))
        assert load_outcome(fm.load_space_csv, path) == load_outcome(load_space_csv_rowloop, path)

    def test_written_files_skip_the_row_loop(self, tmp_path, monkeypatch):
        space = fm.sphericalize_space(group_space("H_H:1", 80, seed=44), 0)
        path = tmp_path / "sph.csv"
        fm.save_space_csv(space, path)

        def row_loop(path):
            raise AssertionError("a written file went through the row loop")
        monkeypatch.setattr(fm, "_load_space_csv_rows", row_loop)
        loaded = fm.load_space_csv(path)
        assert loaded.labels == space.labels
        assert loaded.dist.tobytes() == space.dist.tobytes()

    def test_underscores_take_the_row_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "u.csv"
        path.write_text(CSV_CORPUS["underscores"], encoding="utf-8")
        calls = []
        row_loop = fm._load_space_csv_rows
        monkeypatch.setattr(fm, "_load_space_csv_rows",
                            lambda path: calls.append(path) or row_loop(path))
        assert fm.load_space_csv(path).dist[0, 1] == 10.0
        assert calls == [path]


class TestWrappers:
    def test_invert_space_blocks_double_compactification(self):
        space = group_space("H_C:1", 20, seed=19)
        spherical = fm.sphericalize_space(space, 0)
        with pytest.raises(ValueError, match="already contains"):
            fm.invert_space(spherical, 0)
        with pytest.raises(ValueError, match="already contains"):
            fm.sphericalize_space(spherical, 0)
        # based at infinity, the inversion replaces the point at infinity
        inverted = fm.invert_space(spherical, spherical.label_index(fm.INFINITY_LABEL))
        assert inverted.labels == space.labels + [fm.INFINITY_LABEL]

    def test_label_index(self):
        space = group_space("H_C:1", 5, seed=20)
        assert space.label_index("3") == 3
        with pytest.raises(ValueError, match="unknown point label"):
            space.label_index("missing")

    def test_raw_quasimetric_spaces(self):
        # the space maps close the library's quasimetrics; the raw ones stay library values
        space = group_space("H_C:1", 12, seed=21)
        punctured = space.labels[:3] + space.labels[4:]
        for space_map, quasimetric, labels in (
                (fm.invert_space, fm.inversion_quasimetric, punctured),
                (fm.sphericalize_space, fm.sphericalization_quasimetric, space.labels)):
            closed = space_map(space, 3)
            assert closed.labels == labels + [fm.INFINITY_LABEL] and closed.contains_infinity
            raw = fm.FiniteMetricSpace(closed.labels, quasimetric(space.dist, 3), validate=False)
            assert np.array_equal(closed.dist, fm.chain_metric(raw.dist))

    def test_shared_submatrices(self):
        a = euclidean_space(6, 2, seed=22, labels=list("abcdef"))
        b = fm.FiniteMetricSpace(list("xfdb"), euclidean_space(4, 2, seed=23).dist)
        d_a, d_b = fm.shared_submatrices(a, b)
        # shared labels b, d, f in the order of a; rows 3, 2, 1 of b
        assert np.array_equal(d_a, a.dist[np.ix_([1, 3, 5], [1, 3, 5])])
        assert np.array_equal(d_b, b.dist[np.ix_([3, 2, 1], [3, 2, 1])])
