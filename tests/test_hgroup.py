"""Group law, dilations, gauge metric, sampling, and point files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heislab import hgroup, hlie
from heislab.util import format_float, format_floats

ALGEBRA_NAMES = ["H_R:5", "H_C:1", "H_C:3", "H_H:1", "H_H:2", "H_O", "truncated_HH"]


def builtin(name):
    return hlie.algebra_from_name(name)


def random_points(alg, count, seed, radius=1.0):
    v, z = hgroup.sample_arrays(alg, count, radius, seed)
    return v, z


class TestGroupLaw:
    def test_complex_half_bracket(self):
        alg = builtin("H_C:1")
        # X_1 Y_1
        v, z = hgroup.group_mul(alg, np.array([[1.0, 0.0]]), np.zeros((1, 1)),
                                np.array([[0.0, 1.0]]), np.zeros((1, 1)))
        assert np.array_equal(v, [[1.0, 1.0]])
        assert np.array_equal(z, [[0.5]])

    def test_identity_element(self):
        alg = builtin("H_H:1")
        v, z = random_points(alg, 100, seed=0)
        ev, ez = np.zeros_like(v), np.zeros_like(z)
        for product in (hgroup.group_mul(alg, v, z, ev, ez), hgroup.group_mul(alg, ev, ez, v, z)):
            assert np.array_equal(product[0], v) and np.array_equal(product[1], z)

    def test_inverse_is_negation(self):
        alg = builtin("H_O")
        v, z = random_points(alg, 100, seed=1)
        pv, pz = hgroup.group_mul(alg, v, z, -v, -z)
        # the exact-antisymmetric bracket makes p p^{-1} land on the identity bitwise
        assert np.array_equal(pv, np.zeros((100, 8)))
        assert np.array_equal(pz, np.zeros((100, 7)))

    @pytest.mark.parametrize("name", ALGEBRA_NAMES)
    def test_associativity_bulk(self, name):
        alg = builtin(name)
        v1, z1 = random_points(alg, 100000, seed=2)
        v2, z2 = random_points(alg, 100000, seed=3)
        v3, z3 = random_points(alg, 100000, seed=4)
        left = hgroup.group_mul(alg, *hgroup.group_mul(alg, v1, z1, v2, z2), v3, z3)
        right = hgroup.group_mul(alg, v1, z1, *hgroup.group_mul(alg, v2, z2, v3, z3))
        worst = max(np.max(np.abs(left[0] - right[0])),
                    np.max(np.abs(left[1] - right[1])) if alg.dim_z else 0.0)
        assert worst <= 1e-12


class TestDilations:
    def test_unit_factor_is_identity(self):
        alg = builtin("H_C:1")
        v, z = random_points(alg, 1, seed=5)
        dv, dz = hgroup.dilate_arrays(1.0, v, z)
        assert np.array_equal(dv, v) and np.array_equal(dz, z)

    def test_coordinates_scale_by_degree(self):
        v, z = hgroup.dilate_arrays(2.0, np.array([[1.0, 2, 3, 4]]), np.array([[5.0, 6, 7]]))
        assert np.array_equal(v, [[2, 4, 6, 8]])
        assert np.array_equal(z, [[20, 24, 28]])

    def test_automorphism(self):
        alg = builtin("H_O")
        v, z = random_points(alg, 2000, seed=6)
        w, y = random_points(alg, 2000, seed=7)
        t = 1.7
        left = hgroup.group_mul(alg, *hgroup.dilate_arrays(t, v, z),
                                *hgroup.dilate_arrays(t, w, y))
        right = hgroup.dilate_arrays(t, *hgroup.group_mul(alg, v, z, w, y))
        assert np.max(np.abs(left[0] - right[0])) <= 1e-12
        assert np.max(np.abs(left[1] - right[1])) <= 1e-12

    def test_semigroup_property(self):
        v, z = np.array([[1.0, 1.0]]), np.array([[1.0]])
        a = hgroup.dilate_arrays(2.0, *hgroup.dilate_arrays(3.0, v, z))
        b = hgroup.dilate_arrays(6.0, v, z)
        assert np.allclose(a[0], b[0]) and np.allclose(a[1], b[1])

    def test_gauge_homogeneity(self):
        alg = builtin("H_H:2")
        v, z = random_points(alg, 5000, seed=8)
        g = hgroup.gauge_arrays(alg, v, z)
        for t in (0.25, 3.0):
            gt = hgroup.gauge_arrays(alg, *hgroup.dilate_arrays(t, v, z))
            assert np.max(np.abs(gt - t * g)) <= 1e-10 * max(1.0, t)

    def test_nonpositive_factor(self):
        for t in (0.0, -2.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                hgroup.dilate_arrays(t, np.zeros((1, 2)), np.zeros((1, 1)))
            with pytest.raises(ValueError, match="positive and finite"):
                hgroup.dilate_arrays(np.array([1.0, t]), np.zeros((2, 2)), np.zeros((2, 1)))


class TestGauge:
    def test_pure_center(self):
        alg = builtin("H_H:1")
        assert hgroup.gauge_arrays(alg, np.zeros(4), np.array([4.0, 0.0, 0.0])) == pytest.approx(
            2.0, abs=1e-15)

    def test_pure_horizontal(self):
        alg = builtin("H_C:1")
        assert hgroup.gauge_arrays(alg, np.array([2.0, 0.0]), np.array([0.0])) == pytest.approx(
            1.0, abs=1e-15)

    def test_mixed_example(self):
        alg = builtin("H_C:1")
        assert hgroup.gauge_arrays(alg, np.array([1.0, 0.0]), np.array([1.0])) == pytest.approx(
            (1.0 / 16.0 + 1.0) ** 0.25, abs=1e-15)

    def test_zero_only_at_identity(self):
        alg = builtin("H_C:1")
        assert hgroup.gauge_arrays(alg, np.zeros(2), np.zeros(1)) == 0.0
        assert hgroup.gauge_arrays(alg, np.array([1e-8, 0.0]), np.zeros(1)) > 0.0

    # coordinates of at least 1e-3 keep the dilated ones normal floats down to t = 1e-150
    @settings(max_examples=40, deadline=None)
    @given(coords=arrays(np.float64, (5,), elements=st.one_of(
               st.just(0.0), st.floats(min_value=1e-3, max_value=5.0),
               st.floats(min_value=-5.0, max_value=-1e-3))),
           log_t=st.floats(min_value=-150.0, max_value=150.0))
    def test_homogeneity_hypothesis(self, coords, log_t):
        alg = builtin("H_H:1")
        t = 10.0 ** log_t
        v, z = coords[:4], coords[4:5].repeat(3)
        assert hgroup.gauge_arrays(alg, *hgroup.dilate_arrays(t, v, z)) == pytest.approx(
            t * hgroup.gauge_arrays(alg, v, z), rel=1e-10, abs=1e-12 * t)

    def test_rows_far_from_unit_scale(self):
        alg = builtin("H_C:1")
        v = np.array([[0.0, 0.0], [2.2e-313, 0.0], [0.0, 0.0], [2e200, 0.0], [3e100, 4e100],
                      [np.inf, 0.0], [np.nan, 1.0]])
        z = np.array([[0.0], [0.0], [1e-320], [0.0], [0.0], [0.0], [0.0]])
        g = hgroup.gauge_arrays(alg, v, z)
        assert g[0] == 0.0
        # a subnormal row: its gauge^4, and the squares of a float dilation, underflow
        assert g[1] == pytest.approx(1.1e-313, rel=1e-9)
        assert g[2] == pytest.approx(1e-160, rel=1e-9)
        assert g[3:5] == pytest.approx([1e200, 2.5e100], rel=1e-15)
        assert g[5] == np.inf and np.isnan(g[6])


class TestGaugeDistance:
    def test_zero_on_diagonal_exactly(self):
        alg = builtin("H_O")
        v, z = random_points(alg, 100, seed=9)
        d = hgroup.gauge_dist_arrays(alg, v, z, v, z)
        assert np.array_equal(d, np.zeros(100))

    def test_distance_to_identity_is_gauge(self):
        alg = builtin("H_C:3")
        v, z = random_points(alg, 50, seed=10)
        d = hgroup.gauge_dist_arrays(alg, v, z, np.zeros_like(v), np.zeros_like(z))
        assert np.array_equal(d, hgroup.gauge_arrays(alg, v, z))

    def test_hand_composed_example(self):
        # q^{-1} p = (X_1 - Y_1, Z/2) whose gauge is (4/16 + 1/4)^(1/4)
        alg = builtin("H_C:1")
        pv, qv, zero = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.zeros((1, 1))
        cv, cz = hgroup.group_mul(alg, -qv, -zero, pv, zero)
        assert np.array_equal(cv, [[1.0, -1.0]])
        assert np.array_equal(cz, [[0.5]])
        d = hgroup.gauge_dist_arrays(alg, pv, zero, qv, zero)
        assert d[0] == pytest.approx(0.5 ** 0.25, abs=1e-15)

    def test_exact_symmetry(self):
        alg = builtin("H_H:2")
        v1, z1 = random_points(alg, 500, seed=11)
        v2, z2 = random_points(alg, 500, seed=12)
        forward = hgroup.gauge_dist_arrays(alg, v1, z1, v2, z2)
        backward = hgroup.gauge_dist_arrays(alg, v2, z2, v1, z1)
        assert np.array_equal(forward, backward)

    @pytest.mark.parametrize("name", ALGEBRA_NAMES)
    def test_left_invariance(self, name):
        alg = builtin(name)
        vg, zg = random_points(alg, 10000, seed=13)
        v1, z1 = random_points(alg, 10000, seed=14)
        v2, z2 = random_points(alg, 10000, seed=15)
        base = hgroup.gauge_dist_arrays(alg, v1, z1, v2, z2)
        tv1, tz1 = hgroup.group_mul(alg, vg, zg, v1, z1)
        tv2, tz2 = hgroup.group_mul(alg, vg, zg, v2, z2)
        moved = hgroup.gauge_dist_arrays(alg, tv1, tz1, tv2, tz2)
        assert np.max(np.abs(moved - base)) <= 1e-10

    @pytest.mark.parametrize("name", ALGEBRA_NAMES)
    def test_triangle_inequality(self, name):
        alg = builtin(name)
        v1, z1 = random_points(alg, 100000, seed=16)
        v2, z2 = random_points(alg, 100000, seed=17)
        v3, z3 = random_points(alg, 100000, seed=18)
        d12 = hgroup.gauge_dist_arrays(alg, v1, z1, v2, z2)
        d23 = hgroup.gauge_dist_arrays(alg, v2, z2, v3, z3)
        d13 = hgroup.gauge_dist_arrays(alg, v1, z1, v3, z3)
        assert np.max(d13 - d12 - d23) <= 1e-12

    def test_scaling_law(self):
        # dilating by sqrt(t) scales distances by sqrt(t)
        alg = builtin("H_H:1")
        v1, z1 = random_points(alg, 5000, seed=19)
        v2, z2 = random_points(alg, 5000, seed=20)
        base = hgroup.gauge_dist_arrays(alg, v1, z1, v2, z2)
        for t in (0.5, 2.0, 9.0):
            s = np.sqrt(t)
            scaled = hgroup.gauge_dist_arrays(alg, *hgroup.dilate_arrays(s, v1, z1),
                                              *hgroup.dilate_arrays(s, v2, z2))
            assert np.max(np.abs(scaled - s * base)) <= 1e-10 * max(1.0, s)

    def test_pairwise_matrix_matches_rowwise(self):
        alg = builtin("H_H:1")
        v, z = random_points(alg, 64, seed=21)
        full = hgroup.pairwise_gauge_dist(alg, v, z)
        assert np.array_equal(full, full.T)
        assert np.array_equal(np.diag(full), np.zeros(64))
        i, j = 5, 41
        expected = hgroup.gauge_dist_arrays(alg, v[i:i + 1], z[i:i + 1],
                                            v[j:j + 1], z[j:j + 1])[0]
        assert full[j, i] == expected  # row block q, column p

    def test_pairwise_chunking_is_invisible(self):
        alg = builtin("H_C:1")
        v, z = random_points(alg, 70, seed=22)
        a = hgroup.pairwise_gauge_dist(alg, v, z, chunk=7)
        b = hgroup.pairwise_gauge_dist(alg, v, z, chunk=256)
        assert np.array_equal(a, b)


class TestBallVolumeHomogeneity:
    def test_fitted_exponent_within_one_percent(self):
        # Monte-Carlo ball volumes at radii 1/2, 1, 2 scale like r^Q
        alg = builtin("H_C:1")
        target = alg.homogeneous_dimension
        radii = [0.5, 1.0, 2.0]
        logs = []
        for idx, r in enumerate(radii):
            rng = np.random.default_rng(100 + idx)
            v, z = hgroup.sample_with_rng(alg, 200000, r, rng)
            inside = hgroup.gauge_arrays(alg, v, z) <= r
            box = (4.0 * r) ** alg.dim_v * (2.0 * r * r) ** alg.dim_z
            logs.append(np.log(box * np.count_nonzero(inside) / inside.size))
        slope = np.polyfit(np.log(radii), logs, 1)[0]
        assert abs(slope - target) <= 0.01 * target


class TestSampling:
    def test_count_precondition(self):
        with pytest.raises(ValueError, match="count"):
            hgroup.sample_arrays(builtin("H_C:1"), 0, 1.0, seed=0)

    def test_radius_precondition(self):
        with pytest.raises(ValueError, match="radius"):
            hgroup.sample_arrays(builtin("H_C:1"), 5, 0.0, seed=0)

    def test_determinism(self):
        alg = builtin("H_H:1")
        a = hgroup.sample_arrays(alg, 100, 1.5, seed=7)
        b = hgroup.sample_arrays(alg, 100, 1.5, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_reproducibility_oracle(self):
        # independent re-implementation of the documented draw order
        alg = builtin("H_C:3")
        radius = 0.8
        v, z = hgroup.sample_arrays(alg, 100000, radius, seed=11)
        rng = np.random.default_rng(11)
        ov = rng.uniform(-2 * radius, 2 * radius, size=(100000, alg.dim_v))
        oz = rng.uniform(-radius ** 2, radius ** 2, size=(100000, alg.dim_z))
        assert np.array_equal(v, ov) and np.array_equal(z, oz)
        got = float(np.mean(hgroup.gauge_arrays(alg, v, z)))
        a = 0.25 * np.sum(ov ** 2, axis=1)
        expected = float(np.mean((a * a + np.sum(oz ** 2, axis=1)) ** 0.25))
        assert got == expected

    def test_box_bounds(self):
        alg = builtin("H_O")
        radius = 2.0
        v, z = hgroup.sample_arrays(alg, 1000, radius, seed=12)
        assert np.max(np.abs(v)) <= 2 * radius
        assert np.max(np.abs(z)) <= radius ** 2

    def test_points_list(self):
        alg = builtin("H_R:5")
        v, z = hgroup.sample_arrays(alg, 10, 1.0, seed=13)
        assert v.shape == (10, 5)
        assert z.shape == (10, 0)


class TestPointFiles:
    @pytest.mark.parametrize("name", ["H_C:2", "H_R:3", "H_O"])
    def test_round_trip_bit_exact(self, tmp_path, name):
        alg = builtin(name)
        v, z = hgroup.sample_arrays(alg, 250, 1.3, seed=14)
        path = tmp_path / "points.csv"
        hgroup.save_points_csv(path, alg, v, z)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        rv, rz = data[:, :alg.dim_v], data[:, alg.dim_v:]
        assert rv.tobytes() == v.tobytes()
        assert rz.tobytes() == z.tobytes()

    @pytest.mark.parametrize("name", ["H_C:2", "H_R:3"])
    def test_bytes_match_per_entry_formatting(self, tmp_path, name):
        alg = builtin(name)
        v, z = hgroup.sample_arrays(alg, 300, 1e-3, seed=16)
        v[0, 0], v[1, 0], v[2, 0] = -0.0, 5e-324, np.inf
        path = tmp_path / "points.csv"
        hgroup.save_points_csv(path, alg, v, z)
        lines = [",".join(hgroup._csv_header(alg))]
        lines += [",".join(format_float(x) for x in row) for row in np.hstack([v, z])]
        assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"

    def test_format_floats_is_format_float_in_bulk(self):
        values = np.array([0.0, -0.0, 0.1, 1 / 3, 1e-310, -np.inf, np.nan, 2.0 ** 60, 1e22])
        assert format_floats(values) == [format_float(x) for x in values]
        assert format_floats(values.astype(np.float32)) == [
            format_float(x) for x in values.astype(np.float32)]
        assert format_floats([]) == []

    def test_header_mismatch(self, tmp_path):
        # the header names the coordinates of the algebra the file was written for
        alg_a, alg_b = builtin("H_C:1"), builtin("H_H:1")
        path = tmp_path / "points.csv"
        v, z = hgroup.sample_arrays(alg_a, 4, 1.0, seed=15)
        hgroup.save_points_csv(path, alg_a, v, z)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "v_1,v_2,z_1"
        assert len(header.split(",")) != alg_b.dim_v + alg_b.dim_z
