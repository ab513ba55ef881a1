"""Distortion statistics: cross-ratios and their invariances, quasimobius
constants, quasiconformality ratios, and volume-growth exponents."""

import csv
import math
from functools import partial

import numpy as np
import pytest

from heislab import algebra as al
from heislab import distortion as dt
from heislab import finite_metric as fm
from heislab import hgroup, hlie, inversion
from heislab.util import _CHUNK, canonical_json
from oracles import peak_mib, quasimobius_statistics_vstack


def builtin(name):
    return hlie.algebra_from_name(name)


def gauge_matrix(name, count, seed, radius=1.0):
    alg = builtin(name)
    v, z = hgroup.sample_arrays(alg, count, radius, seed)
    return alg, v, z, hgroup.pairwise_gauge_dist(alg, v, z)


def cross_ratio(dist, quad):
    return dt.cross_ratio_rows(np.asarray(dist), np.array([quad]))[0]


class TestCrossRatio:
    def test_equilateral_is_one(self):
        dist = np.ones((4, 4)) - np.eye(4)
        assert cross_ratio(dist, (0, 1, 2, 3)) == 1.0

    def test_double_swap_symmetry(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(6, 3))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        a = cross_ratio(dist, (0, 1, 2, 3))
        b = cross_ratio(dist, (1, 0, 3, 2))
        assert a == pytest.approx(b, rel=1e-15)

    def test_collinear_value(self):
        dist = np.abs(np.subtract.outer([0.0, 1, 2, 3], [0.0, 1, 2, 3]))
        assert cross_ratio(dist, (0, 1, 2, 3)) == pytest.approx(0.25)

    def test_zero_denominator_rejected(self):
        # a degenerate row comes out infinite, and estimate_quasimobius skips it
        dist = np.ones((4, 4)) - np.eye(4)
        dist[0, 2] = dist[2, 0] = 0.0
        assert cross_ratio(dist, (0, 1, 2, 3)) == np.inf

    def test_swapped_rows_follow_with_their_own_bits(self):
        # 2N rows: near / far for the sampled rows, then the reciprocal far / near
        _, _, _, dist = gauge_matrix("H_O", 30, seed=26)
        quads = dt.sample_quadruples(30, 1000, np.random.default_rng(27))
        both = dt.cross_ratio_rows(dist, quads)
        alone = np.concatenate([dt.cross_ratio_rows(dist, quads)[:1000],
                                dt.cross_ratio_rows(dist, quads[:, [0, 2, 1, 3]])[:1000]])
        assert both.shape == (2000,) and both.tobytes() == alone.tobytes()
        x, y, z, w = quads.T
        near, far = dist[x, y] * dist[z, w], dist[x, z] * dist[y, w]
        assert both.tobytes() == np.concatenate([near / far, far / near]).tobytes()


class TestCrossRatioInvariance:
    def test_inversion_quasimetric_preserves_cross_ratios(self):
        # the d(., p) factors cancel algebraically
        alg, v, z, dist = gauge_matrix("H_C:1", 60, seed=1)
        space = fm.FiniteMetricSpace([str(i) for i in range(60)], dist)
        t = fm.inversion_quasimetric(space.dist, 0)
        rng = np.random.default_rng(2)
        quads = dt.sample_quadruples(59, 5000, rng)  # rows of t, finite points only
        original = dt.cross_ratio_rows(dist[1:, 1:], quads)
        inverted = dt.cross_ratio_rows(t[:59, :59], quads)
        assert np.max(np.abs(inverted / original - 1.0)) <= 1e-12

    def test_left_translation_invariance(self):
        alg = builtin("H_H:1")
        v, z = hgroup.sample_arrays(alg, 50, 1.0, seed=3)
        dist = hgroup.pairwise_gauge_dist(alg, v, z)
        gv, gz = hgroup.sample_arrays(alg, 1, 1.0, seed=4)
        tv, tz = hgroup.group_mul(alg, np.broadcast_to(gv[0], v.shape),
                                  np.broadcast_to(gz[0], z.shape), v, z)
        moved = hgroup.pairwise_gauge_dist(alg, tv, tz)
        rng = np.random.default_rng(5)
        quads = dt.sample_quadruples(50, 3000, rng)
        a = dt.cross_ratio_rows(dist, quads)
        b = dt.cross_ratio_rows(moved, quads)
        assert np.max(np.abs(b / a - 1.0)) <= 1e-12

    def test_dilation_invariance(self):
        alg, v, z, dist = gauge_matrix("H_C:3", 50, seed=6)
        sv, sz = hgroup.dilate_arrays(2.5, v, z)
        scaled = hgroup.pairwise_gauge_dist(alg, sv, sz)
        rng = np.random.default_rng(7)
        quads = dt.sample_quadruples(50, 3000, rng)
        a = dt.cross_ratio_rows(dist, quads)
        b = dt.cross_ratio_rows(scaled, quads)
        assert np.max(np.abs(b / a - 1.0)) <= 1e-12


class TestQuasimobius:
    def test_identity_map_has_constant_one(self):
        _, _, _, dist = gauge_matrix("H_C:1", 40, seed=8)
        report = dt.estimate_quasimobius(dist, dist, samples=5000, seed=9)
        assert report.statistics["strong_constant"] == 1.0
        assert report.statistics["min_ratio"] == 1.0

    def test_scaling_is_invisible(self):
        _, _, _, dist = gauge_matrix("H_C:1", 40, seed=10)
        report = dt.estimate_quasimobius(dist, 7.3 * dist, samples=5000, seed=11)
        assert report.statistics["strong_constant"] == pytest.approx(1.0, abs=1e-12)

    def test_constant_is_at_least_one_by_swap(self):
        # a deliberately warped image metric still reports C >= 1
        _, _, _, dist = gauge_matrix("H_C:1", 40, seed=12)
        warped = np.sqrt(dist)
        report = dt.estimate_quasimobius(dist, warped, samples=5000, seed=13)
        assert report.statistics["strong_constant"] >= 1.0

    def test_sixteen_t_bound_for_chain_constructions(self):
        alg, v, z, dist = gauge_matrix("H_C:1", 120, seed=14)
        space = fm.FiniteMetricSpace([str(i) for i in range(120)], dist)
        spherical = fm.sphericalize_space(space, 0)
        report = dt.estimate_quasimobius(dist, spherical.dist[:120, :120],
                                         samples=200000, seed=15)
        c = report.statistics["strong_constant"]
        assert 1.0 <= c <= 16.0
        inverted = fm.invert_space(space, 0)
        report = dt.estimate_quasimobius(dist[1:, 1:], inverted.dist[:119, :119],
                                         samples=200000, seed=16)
        c = report.statistics["strong_constant"]
        assert 1.0 <= c <= 16.0

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sample_count_must_be_positive(self, samples):
        _, _, _, d = gauge_matrix("H_C:1", 10, 40)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            dt.estimate_quasimobius(d, d, samples=samples)

    def test_too_few_points(self):
        dist = np.zeros((3, 3))
        with pytest.raises(ValueError, match="at least four"):
            dt.estimate_quasimobius(dist, dist, samples=10, seed=0)

    def test_degenerate_quadruples_are_counted(self):
        dist = np.ones((6, 6)) - np.eye(6)
        broken = dist.copy()
        broken[0, 1] = broken[1, 0] = 0.0  # not a metric, but formula-level input
        report = dt.estimate_quasimobius(broken, dist, samples=2000, seed=17)
        assert report.statistics["degenerate_skipped"] > 0
        assert report.statistics["nonfinite_skipped"] == 0

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_float_range_skips_are_counted_apart(self, scale):
        # points 0 and 1 lie `scale` from every other point: a quadruple that
        # pairs each of them with another point overflows (underflows) a product
        far = np.arange(6) < 2
        dist = np.where(far[:, None] | far, scale, 1.0)
        np.fill_diagonal(dist, 0.0)
        stats = dt.estimate_quasimobius(dist, dist, samples=2000, seed=17).statistics
        assert stats["nonfinite_skipped"] == stats["degenerate_skipped"] > 0
        assert stats["quadruples_used"] + stats["degenerate_skipped"] == 2 * 2000
        broken = dist.copy()
        broken[2, 3] = broken[3, 2] = 0.0
        stats = dt.estimate_quasimobius(broken, dist, samples=2000, seed=17).statistics
        assert 0 < stats["nonfinite_skipped"] < stats["degenerate_skipped"]

    @pytest.mark.parametrize("samples", [1, 7, 5000, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_ratios_are_those_of_the_stacked_quadruples(self, samples):
        # bit for bit, degenerate rows (zero, inf and NaN distances) included:
        # the chunks' merged statistics are the reductions of the whole arrays
        _, _, _, dist = gauge_matrix("H_H:1", 30, seed=24)
        warped = np.sqrt(dist)
        broken = dist.copy()
        broken[0, 1] = broken[1, 0] = 0.0
        broken[2, 3], broken[4, 5] = np.inf, np.nan
        for d_in, d_out in ((dist, warped), (broken, dist), (dist, broken), (warped, dist.T)):
            report = dt.estimate_quasimobius(d_in, d_out, samples=samples, seed=25,
                                             raw_pairs=True)
            statistics, (t_in, t_out) = quasimobius_statistics_vstack(
                d_in, d_out, samples, 25, dt.BINS_PER_DECADE)
            # repr tells every float apart by its bits
            assert repr(report.statistics) == repr(statistics)
            kept_in, kept_out = map(np.concatenate, zip(*report.raw_pairs))
            assert kept_in.tobytes() == t_in.tobytes()
            assert kept_out.tobytes() == t_out.tobytes()

    def test_envelope_shape(self):
        _, _, _, dist = gauge_matrix("H_H:1", 40, seed=18)
        report = dt.estimate_quasimobius(dist, dist, samples=2000, seed=19)
        for entry in report.statistics["envelope"]:
            assert entry["t_low"] < entry["t_high"]
            assert entry["max_ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_raw_pairs_csv(self, tmp_path):
        _, _, _, dist = gauge_matrix("H_C:1", 20, seed=20)
        with pytest.raises(ValueError, match="no raw cross-ratio pairs"):
            dt.save_ratio_pairs_csv(dt.estimate_quasimobius(dist, dist, samples=100, seed=21),
                                    tmp_path / "none.csv")
        report = dt.estimate_quasimobius(dist, dist, samples=100, seed=21, raw_pairs=True)
        path = tmp_path / "pairs.csv"
        dt.save_ratio_pairs_csv(report, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t_in,t_out"
        assert len(rows) == report.statistics["quadruples_used"] + 1

    def test_raw_pairs_csv_bytes(self, tmp_path):
        # the bytes of csv.writer with one row per pair, in one slice and in several
        _, _, _, dist = gauge_matrix("H_H:1", 30, seed=22)
        for samples in (500, 3 * _CHUNK + 5):
            report = dt.estimate_quasimobius(dist, np.sqrt(dist), samples=samples, seed=23,
                                             raw_pairs=True)
            dt.save_ratio_pairs_csv(report, tmp_path / "pairs.csv")
            with open(tmp_path / "expected.csv", "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t_in", "t_out"])
                for a, b in zip(*map(np.concatenate, zip(*report.raw_pairs))):
                    writer.writerow([repr(float(a)), repr(float(b))])
            assert ((tmp_path / "pairs.csv").read_bytes()
                    == (tmp_path / "expected.csv").read_bytes())


class TestQcRatio:
    def center(self, alg, seed, target=1.0):
        return dt.random_center(alg, target, seed=seed)

    def test_random_center_is_a_dilated_root_draw(self):
        alg = builtin("H_H:1")
        c = dt.random_center(alg, 2.5, seed=30)
        assert hgroup.gauge_arrays(alg, c.v, c.z) == pytest.approx(2.5, rel=1e-14)
        v, z = hgroup.sample_arrays(alg, 1, 1.0, seed=30)  # the root stream of the seed
        t = c.v[0] / v[0, 0]
        assert np.allclose(c.v, t * v[0], rtol=1e-14)
        assert np.allclose(c.z, t * t * z[0], rtol=1e-14)

    def test_identity_map_is_one(self):
        alg = builtin("H_C:1")
        report = dt.estimate_qc_ratio(alg, lambda v, z: (v, z), self.center(alg, 22),
                                      [0.1, 0.01], samples=20000, seed=23)
        for entry in report.statistics["per_radius"]:
            assert entry["ratio"] == pytest.approx(1.0, abs=5e-3)

    def test_dilation_is_a_similarity(self):
        alg = builtin("H_H:1")
        report = dt.estimate_qc_ratio(alg, partial(hgroup.dilate_arrays, 3.0),
                                      self.center(alg, 24), [0.1, 0.01], samples=20000, seed=25)
        for entry in report.statistics["per_radius"]:
            assert entry["ratio"] == pytest.approx(1.0, abs=5e-3)

    def test_insufficient_sampling_is_flagged(self):
        alg = builtin("H_C:1")
        report = dt.estimate_qc_ratio(alg, lambda v, z: (v, z), self.center(alg, 26),
                                      [0.1], samples=1, seed=27)
        entry = report.statistics["per_radius"][0]
        assert entry["insufficient_sampling"] is True
        assert entry["ratio"] is None

    def test_samples_must_be_positive(self):
        alg = builtin("H_C:1")
        with pytest.raises(ValueError, match=r"^samples must be >= 1$"):
            dt.estimate_qc_ratio(alg, lambda v, z: (v, z), self.center(alg, 26),
                                 [0.1], samples=0, seed=27)

    @pytest.mark.parametrize("name, map_name", [("H_C:1", "inversion"), ("H_H:2", "dilation"),
                                                ("H_O", "inversion")])
    def test_row_blocks_do_not_change_the_report(self, monkeypatch, name, map_name):
        alg = builtin(name)
        point_map = (partial(inversion.sigma_arrays, alg) if map_name == "inversion"
                     else partial(hgroup.dilate_arrays, 3.0))
        center = self.center(alg, 31)

        def report(block):
            monkeypatch.setattr(al, "_SLICE_ROWS", block)
            return dt.estimate_qc_ratio(alg, point_map, center, [1.0, 0.1, 0.01],
                                        samples=5000, seed=32).to_dict()
        whole = report(5000)
        assert [e["inner_points"] > 0 for e in whole["statistics"]["per_radius"]] == [True] * 3
        for block in (7, 1024, 4999):
            assert report(block) == whole

    def test_radii_must_decrease(self):
        alg = builtin("H_C:1")
        with pytest.raises(ValueError, match="decreasing"):
            dt.estimate_qc_ratio(alg, lambda v, z: (v, z), self.center(alg, 28),
                                 [0.01, 0.1], samples=10, seed=29)


    @pytest.mark.parametrize("radii, message", [
        ([1e300], "too large"), ([0.1, 1e-151], "too small"), ([float("nan")], "finite"),
        ([0.1, 1e-8], "below the resolution"),
    ])
    def test_radii_within_the_sampler_range(self, radii, message):
        alg = builtin("H_C:1")
        with pytest.raises(ValueError, match=message):
            dt.estimate_qc_ratio(alg, lambda v, z: (v, z), self.center(alg, 28),
                                 radii, samples=10, seed=29)

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_ratios_are_free_of_the_scale(self, scale):
        # sigma(delta_s p) = delta_{1/s} sigma(p): at center gauge s and radii s r
        # the ratios are those at center gauge 1 and radii r
        alg = builtin("H_C:1")

        def ratios(s):
            report = dt.estimate_qc_ratio(alg, partial(inversion.sigma_arrays, alg),
                                          self.center(alg, 28, s), [s * 0.1, s * 0.01],
                                          samples=2000, seed=29)
            return [entry["ratio"] for entry in report.statistics["per_radius"]]
        assert ratios(scale) == pytest.approx(ratios(1.0), rel=1e-9)

    def test_radius_far_above_the_center_gauge(self):
        alg = builtin("H_C:1")
        report = dt.estimate_qc_ratio(alg, partial(inversion.sigma_arrays, alg),
                                      self.center(alg, 28), [1e100], samples=200, seed=29)
        entry = report.statistics["per_radius"][0]
        assert entry["inner_points"] > 0 and entry["outer_points"] > 0
        assert np.isfinite(entry["ratio"])

    def test_largest_radii_evaluate_without_overflow(self):
        alg = builtin("H_C:1")
        # underflow of the tiny images is numpy's default "ignore", as outside this test
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report = dt.estimate_qc_ratio(alg, partial(inversion.sigma_arrays, alg),
                                          self.center(alg, 28), [1.1e77, 1e76], samples=200,
                                          seed=29)
        assert all(entry["outer_points"] > 0 for entry in report.statistics["per_radius"])

class TestRegularity:
    def test_euclidean_volume_oracle(self):
        # for the abelian group the gauge ball of radius r is the Euclidean
        # ball of radius 2r, so the estimate can be checked in closed form
        alg = builtin("H_R:3")
        report = dt.estimate_regularity(alg, [0.1, 0.5, 1.0, 2.0], samples=50000, seed=30)
        assert report.statistics["fitted_exponent"] == pytest.approx(3.0, abs=1e-9)
        for entry in report.statistics["per_radius"]:
            r = entry["radius"]
            exact = math.pi ** 1.5 * (2 * r) ** 3 / math.gamma(2.5)
            assert entry["volume"] == pytest.approx(exact, rel=1e-9)

    def test_exact_scaling_oracle_complex(self):
        # dilation scaling makes mu(B(e, r)) = r^Q mu(B(e, 1)) exactly
        alg = builtin("H_C:1")
        report = dt.estimate_regularity(alg, np.logspace(-1, 1, 7), samples=300000, seed=31)
        assert abs(report.statistics["fitted_exponent"] - 4.0) <= 0.05

    def test_decade_precondition(self):
        alg = builtin("H_C:1")
        with pytest.raises(ValueError, match="decade"):
            dt.estimate_regularity(alg, [0.5, 1.0, 2.0], samples=100, seed=34)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sample_count_must_be_positive(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            dt.estimate_regularity(builtin("H_C:1"), [0.1, 1.0], samples=samples)

    def test_positive_radii_required(self):
        alg = builtin("H_C:1")
        with pytest.raises(ValueError, match="positive"):
            dt.estimate_regularity(alg, [-1.0, 10.0], samples=100, seed=35)

    def test_report_is_free_of_the_worker_count(self, monkeypatch):
        alg = builtin("H_H:1")
        sampled = dt._sampled
        workers = []
        monkeypatch.setattr(dt, "_sampled", lambda fn, samples, seed, count=1: (
            workers.append(count), sampled(fn, samples, seed, count))[1])
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(dt, "_cpu_count", lambda: cpus)
            reports.append(canonical_json(dt.estimate_regularity(
                alg, [0.1, 1.0, 10.0], samples=3 * _CHUNK + 5, seed=36).to_dict()))
        assert reports[0] == reports[1] == reports[2]
        assert workers == [1] * 3 + [2] * 3 + [3] * 3

    @pytest.mark.parametrize("r", [1e-100, 1.0, 1e100])
    def test_hits_are_those_of_the_gauge_kernel(self, r):
        # the chunk evaluates the gauge without gauge_arrays, with its bits
        alg = builtin("H_O")
        hits = dt._ball_hits(alg, r, 5000, np.random.default_rng(37))
        rng = np.random.default_rng(37)
        v = dt._uniform_ball(rng, 5000, alg.dim_v, 2.0 * r)
        z = dt._uniform_ball(rng, 5000, alg.dim_z, r * r)
        assert 0 < hits == int(np.count_nonzero(hgroup.gauge_arrays(alg, v.T, z.T) <= r))


class TestSampleQuadruples:
    def test_rows_are_distinct(self):
        rng = np.random.default_rng(36)
        quads = dt.sample_quadruples(10, 5000, rng)
        assert quads.shape == (5000, 4)
        for row in quads[:200]:
            assert len(set(row.tolist())) == 4

    def test_determinism(self):
        a = dt.sample_quadruples(10, 100, np.random.default_rng(37))
        b = dt.sample_quadruples(10, 100, np.random.default_rng(37))
        assert np.array_equal(a, b)

    def test_needs_four_points(self):
        with pytest.raises(ValueError, match="at least four"):
            dt.sample_quadruples(3, 10, np.random.default_rng(38))


class TestReport:
    def test_to_dict_fields(self):
        alg = builtin("H_C:1")
        report = dt.estimate_regularity(alg, [0.1, 1.0], samples=1000, seed=39)
        payload = report.to_dict()
        assert payload["kind"] == "regularity"
        assert payload["algebra"] == "H_C:1"
        assert "fingerprint" in payload
        assert payload["statistics"]["homogeneous_dimension"] == 4

    def test_unset_fields_and_raw_pairs_stay_out(self):
        _, _, _, d = gauge_matrix("H_C:1", 10, 41)
        report = dt.estimate_quasimobius(d, d, samples=100, seed=41)
        assert report.raw_pairs is None and report.algebra is None
        assert set(report.to_dict()) == {"kind", "samples", "seed", "statistics"}
        report = dt.estimate_quasimobius(d, d, samples=100, seed=41, raw_pairs=True)
        assert report.raw_pairs is not None
        assert set(report.to_dict()) == {"kind", "samples", "seed", "statistics"}



class TestMemory:
    """The sampled estimators hold one chunk of draws at a time, not the whole sample."""

    def test_regularity(self, monkeypatch):
        # one chunk per worker thread: two, as on a 2-CPU machine
        monkeypatch.setattr(dt, "_cpu_count", lambda: 2)
        alg = builtin("H_O")
        assert peak_mib(lambda: dt.estimate_regularity(
            alg, [0.1, 1.0], samples=200000, seed=1)) <= 8.0

    def test_qc_ratio(self):
        alg = builtin("H_O")
        center = dt.random_center(alg, 1.0, seed=1)
        assert peak_mib(lambda: dt.estimate_qc_ratio(
            alg, partial(inversion.sigma_arrays, alg), center, [0.1, 0.01], samples=200000,
            seed=1)) <= 16.0

    def test_quasimobius(self):
        # the stacked sample would be 500,000 x 4 indices and 1e6 x 2 ratios (32 MB)
        _, _, _, dist = gauge_matrix("H_C:1", 300, seed=1)
        warped = np.sqrt(dist)
        assert peak_mib(lambda: dt.estimate_quasimobius(
            dist, warped, samples=500000, seed=1)) <= 8.0
