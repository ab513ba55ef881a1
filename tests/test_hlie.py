"""Step-two algebras: brackets, J-maps, and the two structure certifications."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heislab import algebra as al
from heislab import hlie
from heislab.algebra import AlgebraKind
from oracles import (ROW_COUNTS, apply_j_rows_einsum, bracket, bracket_einsum, bracket_gather,
                     conj, h_type_residual_whole, j_map, peak_mib, write_algebra_spec)

HEISENBERG_NAMES = ["H_R:5", "H_C:1", "H_C:3", "H_H:1", "H_H:2", "H_O"]


def every_builtin():
    return [hlie.algebra_from_name(name) for name in
            HEISENBERG_NAMES + ["truncated_HH"]]


def kernel_algebras():
    """Every builtin algebra with both controls, for the kernel oracle tests."""
    return every_builtin() + [hlie.make_degenerate_direct_sum()]


@pytest.fixture
def dense_spec(tmp_path):
    """A spec-file algebra whose every bracket coefficient is nonzero and
    non-unit, so that each center direction and each J-image sums several terms."""
    rng = np.random.default_rng(40)
    dim_v, dim_z = 6, 3
    entries = [[i, j, k, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))]
               for i in range(1, dim_v + 1) for j in range(i + 1, dim_v + 1)
               for k in range(1, dim_z + 1)]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"label": "dense", "dim_v": dim_v, "dim_z": dim_z,
                                "entries": entries}))
    return hlie.load_algebra_spec(path)


def orthonormal_pairs(rng, count, dim):
    """Rowwise orthonormal pairs (z, z') by Gram-Schmidt on Gaussian draws."""
    first = rng.standard_normal((count, dim))
    first /= np.linalg.norm(first, axis=1, keepdims=True)
    second = rng.standard_normal((count, dim))
    second -= np.sum(second * first, axis=1, keepdims=True) * first
    return first, second / np.linalg.norm(second, axis=1, keepdims=True)


def assert_witness_raises_rank(alg, witness):
    """Brute-force oracle: stacking J_z J_z' x onto the generators J_W x raises their rank."""
    x, z, zp = witness
    target = j_map(alg, z) @ (j_map(alg, zp) @ x)
    generators = np.stack([j_map(alg, w) @ x for w in np.eye(alg.dim_z)])
    base_rank = np.linalg.matrix_rank(generators, tol=1e-9)
    assert np.linalg.matrix_rank(np.vstack([generators, target]), tol=1e-9) == base_rank + 1


def assert_close_relative(got, expected, rel=1e-15):
    assert np.max(np.abs(got - expected)) <= rel * np.max(np.abs(expected))


class TestBracket:
    def test_complex_x1_y1(self):
        alg = hlie.algebra_from_name("H_C:1")
        assert np.array_equal(bracket(alg, [1, 0], [0, 1]), [1.0])

    def test_antisymmetry_on_equal_arguments(self):
        alg = hlie.algebra_from_name("H_H:2")
        rng = np.random.default_rng(0)
        x = rng.standard_normal(alg.dim_v)
        assert np.array_equal(bracket(alg, x, x), np.zeros(3))

    def test_quaternion_x1_w1(self):
        alg = hlie.algebra_from_name("H_H:1")
        # [X_1, W_1] = Z_3
        assert np.array_equal(bracket(alg, np.eye(4)[0], np.eye(4)[3]), [0, 0, 1.0])

    def test_exact_antisymmetry_in_floats(self):
        # and bitwise agreement with the einsum form, at any row count
        rng = np.random.default_rng(1)
        for alg in kernel_algebras():
            x = rng.standard_normal((500, alg.dim_v))
            y = rng.standard_normal((500, alg.dim_v))
            forward = hlie.bracket_arrays(alg, x, y)
            backward = hlie.bracket_arrays(alg, y, x)
            assert np.array_equal(forward, -backward), alg.label
            assert np.array_equal(forward, bracket_einsum(alg, x, y)), alg.label
            assert np.array_equal(hlie.bracket_arrays(alg, x, x), np.zeros((500, alg.dim_z)))
            for rows in (1, 2, 3):
                assert np.array_equal(hlie.bracket_arrays(alg, x[:rows], y[:rows]),
                                      forward[:rows]), (alg.label, rows)

    def test_dense_spec_algebra(self, dense_spec):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((500, dense_spec.dim_v))
        y = rng.standard_normal((500, dense_spec.dim_v))
        forward = hlie.bracket_arrays(dense_spec, x, y)
        assert np.array_equal(forward, -hlie.bracket_arrays(dense_spec, y, x))
        assert np.array_equal(hlie.bracket_arrays(dense_spec, x, x), np.zeros((500, 3)))
        assert_close_relative(forward, bracket_einsum(dense_spec, x, y))
        table = hlie.bracket_arrays(dense_spec, x[:40, None, :], x[None, :40, :])
        assert np.array_equal(table, -table.transpose(1, 0, 2))

    def test_dimension_mismatch(self):
        alg = hlie.algebra_from_name("H_C:1")
        with pytest.raises(ValueError, match="shape"):
            bracket(alg, [1, 0, 0], [0, 1])

    @pytest.mark.parametrize("name", ["H_O", "truncated_HH", "H_R:3"])
    def test_leading_dimensions_broadcast(self, name):
        alg = hlie.algebra_from_name(name)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, alg.dim_v))
        y = rng.standard_normal((7, alg.dim_v))
        table = hlie.bracket_arrays(alg, x[:, None, :], y[None, :, :])
        assert table.shape == (5, 7, alg.dim_z)
        for i in range(5):
            rows = hlie.bracket_arrays(alg, np.repeat(x[i:i + 1], 7, axis=0), y)
            assert np.array_equal(table[i], rows)


class TestBracketAgainstGather:
    """The coordinate-major bracket is bit for bit the gather form it replaced."""

    NAMES = HEISENBERG_NAMES + ["H_R:3", "H_C:2", "truncated_HH", "degenerate_sum"]

    @staticmethod
    def assert_same_bits(alg, x, y):
        got = hlie.bracket_arrays(alg, x, y)
        want = bracket_gather(alg, x, y)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [0, 1, 2047, 2048, 16385])
    @pytest.mark.parametrize("name", NAMES)
    def test_row_counts(self, name, rows):
        alg = hlie.algebra_from_name(name)
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, alg.dim_v))
        y = rng.standard_normal((rows, alg.dim_v))
        self.assert_same_bits(alg, x, y)

    @pytest.mark.parametrize("rows", [0, 1, 2047, 16385])
    def test_dense_spec(self, dense_spec, rows):
        rng = np.random.default_rng(rows + 1)
        x = rng.standard_normal((rows, dense_spec.dim_v))
        y = rng.standard_normal((rows, dense_spec.dim_v))
        self.assert_same_bits(dense_spec, x, y)
        # [x, x]: every term is +0 or -0
        self.assert_same_bits(dense_spec, x, x)

    @pytest.mark.parametrize("name", NAMES)
    def test_pairwise_tables(self, name):
        # the (chunk, 1, dim_v) against (1, n, dim_v) operands of pairwise_gauge_dist
        alg = hlie.algebra_from_name(name)
        v = np.random.default_rng(5).standard_normal((300, alg.dim_v))
        for start in (0, 256):
            self.assert_same_bits(alg, v[start:start + 256, None, :], v[None, :, :])
            self.assert_same_bits(alg, v[None, :, :], v[start:start + 256, None, :])

    def test_dense_spec_pairwise_table(self, dense_spec):
        v = np.random.default_rng(6).standard_normal((70, dense_spec.dim_v))
        self.assert_same_bits(dense_spec, v[:40, None, :], v[None, :, :])

    def test_sum_starts_at_plus_zero(self):
        # H_C:1 with its bracket negated: each term of [x, x] is -0, and 0 + (-0) = +0
        alg = hlie.HTypeAlgebra("negated", 2, 1, -hlie.algebra_from_name("H_C:1").structure)
        x = np.random.default_rng(8).standard_normal((50, 2))
        self.assert_same_bits(alg, x, x)
        assert not np.any(np.signbit(hlie.bracket_arrays(alg, x, x)))

    @pytest.mark.parametrize("name", ["H_O", "H_H:2", "H_C:1", "truncated_HH", "H_R:3"])
    def test_strided_integer_and_single_row_inputs(self, name):
        alg = hlie.algebra_from_name(name)
        rng = np.random.default_rng(7)
        y = rng.standard_normal((500, alg.dim_v))
        center = rng.standard_normal(alg.dim_v)
        # stride-0 rows, as estimate_qc_ratio passes its center
        self.assert_same_bits(alg, np.broadcast_to(center, y.shape), y)
        self.assert_same_bits(alg, y, np.broadcast_to(center, y.shape))
        self.assert_same_bits(alg, center, y)
        self.assert_same_bits(alg, center, y[0])
        ints = np.arange(12 * alg.dim_v).reshape(12, alg.dim_v) - 40
        self.assert_same_bits(alg, ints, ints[::-1])
        # every term +-0: the sum starts at +0, so no -0 comes out
        self.assert_same_bits(alg, y, y)
        wide = rng.standard_normal((900, alg.dim_v + 3))
        self.assert_same_bits(alg, wide[::3, 2:2 + alg.dim_v], y[::-1][:300])


def j_rows(alg, z, x):
    """Rowwise J_{z[s]} x[s] of (n, dim_z) and (n, dim_v) rows, by the one J
    kernel ``hlie._j_cols`` on the transposed views."""
    return hlie._j_cols(alg, z.T, x.T).T


class TestApplyJRows:
    @pytest.mark.parametrize("name", ["H_C:2", "H_O", "truncated_HH", "H_R:5", "H_C:1",
                                      "H_C:3", "H_H:1", "H_H:2", "degenerate_sum"])
    def test_matches_the_j_matrices(self, name):
        # and bitwise the einsum form
        alg = hlie.algebra_from_name(name)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((20, alg.dim_z))
        x = rng.standard_normal((20, alg.dim_v))
        expected = np.stack([j_map(alg, zs) @ xs for zs, xs in zip(z, x)])
        got = j_rows(alg, z, x)
        assert np.allclose(got, expected, atol=1e-13)
        assert np.array_equal(got, apply_j_rows_einsum(alg, z, x))

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    @pytest.mark.parametrize("name", ["H_O", "H_H:2"])
    def test_row_blocks(self, name, rows):
        alg = hlie.algebra_from_name(name)
        rng = np.random.default_rng(rows)
        z = rng.standard_normal((rows, alg.dim_z))
        x = rng.standard_normal((rows, alg.dim_v))
        assert np.array_equal(j_rows(alg, z, x), apply_j_rows_einsum(alg, z, x))

    @pytest.mark.parametrize("rows", [20, 2049, 6149])
    def test_dense_spec_algebra(self, dense_spec, rows):
        rng = np.random.default_rng(rows)
        z = rng.standard_normal((rows, dense_spec.dim_z))
        x = rng.standard_normal((rows, dense_spec.dim_v))
        assert_close_relative(j_rows(dense_spec, z, x), apply_j_rows_einsum(dense_spec, z, x))

    def test_no_rows(self):
        alg = hlie.algebra_from_name("H_O")
        assert j_rows(alg, np.zeros((0, 7)), np.zeros((0, 8))).shape == (0, 8)


class TestJMap:
    def test_complex_rotation(self):
        # solving <J_Z X, Y> = <Z, [X, Y]> over the H_C(1) basis by hand
        # gives J_Z X_1 = Y_1 and J_Z Y_1 = -X_1
        alg = hlie.algebra_from_name("H_C:1")
        j = j_map(alg, [1.0])
        assert np.array_equal(j @ np.array([1.0, 0.0]), [0.0, 1.0])
        assert np.array_equal(j @ np.array([0.0, 1.0]), [-1.0, 0.0])

    def test_zero_center_vector(self):
        alg = hlie.algebra_from_name("H_H:1")
        assert np.array_equal(j_map(alg, np.zeros(3)), np.zeros((4, 4)))

    def test_octonion_first_column(self):
        # [X_0, X_k] = Z_k forces J_{Z_1} X_0 = X_1
        alg = hlie.algebra_from_name("H_O")
        j = j_map(alg, np.eye(7)[0])
        assert np.array_equal(j @ np.eye(8)[0], np.eye(8)[1])

    @pytest.mark.parametrize("alg", every_builtin(), ids=lambda a: a.label)
    def test_skew_symmetry(self, alg):
        for k in range(alg.dim_z):
            j = j_map(alg, np.eye(alg.dim_z)[k])
            assert np.max(np.abs(j + j.T)) <= 1e-14

    @pytest.mark.parametrize("alg", every_builtin(), ids=lambda a: a.label)
    def test_defining_identity(self, alg):
        rng = np.random.default_rng(7)
        worst = 0.0
        x = rng.standard_normal((10000, alg.dim_v))
        y = rng.standard_normal((10000, alg.dim_v))
        z = rng.standard_normal((10000, alg.dim_z))
        jx = np.einsum("sk,kij,si->sj", z, alg.structure, x)
        lhs = np.sum(jx * y, axis=1)
        rhs = np.sum(z * hlie.bracket_arrays(alg, x, y), axis=1)
        worst = np.max(np.abs(lhs - rhs))
        assert worst <= 1e-12

    @pytest.mark.parametrize("alg", every_builtin(), ids=lambda a: a.label)
    def test_orthogonal_anticommutation(self, alg):
        # polarization of J_Z^2 = -|Z|^2 I on Heisenberg-type algebras
        if alg.dim_z < 2:
            return
        z1, z2 = orthonormal_pairs(np.random.default_rng(8), 200, alg.dim_z)
        for a, b in zip(z1, z2):
            ja, jb = j_map(alg, a), j_map(alg, b)
            assert np.max(np.abs(ja @ jb + jb @ ja)) <= 1e-12

    @pytest.mark.parametrize("alg", every_builtin(), ids=lambda a: a.label)
    def test_span_rank_is_center_dimension(self, alg):
        if alg.dim_z == 0:
            return
        rng = np.random.default_rng(9)
        x = rng.standard_normal(alg.dim_v)
        x /= np.linalg.norm(x)
        generators = np.stack([j_map(alg, z) @ x for z in np.eye(alg.dim_z)])
        assert np.linalg.matrix_rank(generators, tol=1e-9) == alg.dim_z

    @settings(max_examples=30, deadline=None)
    @given(data=arrays(np.float64, (3, 4), elements=st.floats(min_value=-5, max_value=5)))
    def test_defining_identity_hypothesis(self, data):
        alg = hlie.algebra_from_name("H_H:1")
        x, y, zfull = data
        z = zfull[:3]
        lhs = float((j_map(alg, z) @ x) @ y)
        rhs = float(z @ bracket(alg, x, y))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# seeds whose entries near 1e160 overflow in the Clifford blocks, with the
# residual they give: on 25, 32 and 36 (dim_v = 3) only the blocks S_ab with
# a != b hold a NaN, and the diagonal blocks an inf, so the NaN must win
OVERFLOW_RESIDUALS = {11: "inf", 25: "nan", 32: "nan", 36: "nan"}


class TestCheckHType:
    @pytest.mark.parametrize("name", HEISENBERG_NAMES + ["truncated_HH"])
    def test_positive_cases(self, name):
        report = hlie.check_h_type(hlie.algebra_from_name(name), samples=2000, seed=1)
        assert report.is_h_type
        assert report.max_residual <= 1e-12

    def test_empty_center_is_vacuous(self):
        report = hlie.check_h_type(hlie.algebra_from_name("H_R:5"), samples=10, seed=1)
        assert report.is_h_type and report.max_residual == 0.0

    def test_empty_center_builds_no_horizontal_matrix(self):
        # the Clifford residual has dim_z**2 blocks of dim_v x dim_v: none at dim_z = 0
        alg = hlie.algebra_from_name("H_R:2000")
        assert peak_mib(lambda: hlie.check_h_type(alg)) < 1.0

    def test_large_center_holds_one_direction(self):
        # all dim_z**2 blocks of dim_v x dim_v at once took 96 MiB here
        alg = hlie.HTypeAlgebra("zero", 16, 128, np.zeros((128, 16, 16)))
        assert peak_mib(lambda: hlie.check_h_type(alg)) < 2.0

    def test_reads_the_structure_tensor_without_a_copy(self):
        # three 8 MiB blocks; a cached copy of J = -B, 8 MiB more, took 32 MiB here
        alg = hlie.algebra_from_name("H_C:512")
        assert peak_mib(lambda: hlie.check_h_type(alg)) <= 26.0

    @pytest.mark.parametrize("seed", [*range(6), *OVERFLOW_RESIDUALS])
    def test_residual_is_the_whole_formula_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        dim_z, dim_v = rng.integers(1, 9), rng.integers(1, 17)
        shape = (int(dim_z), int(dim_v), int(dim_v))
        # magnitudes spread over many binades, so that a change of summation order shows
        tensor = rng.standard_normal(shape) * np.exp(3.0 * rng.standard_normal(shape))
        if seed in OVERFLOW_RESIDUALS:
            tensor *= 1e160
        alg = hlie.HTypeAlgebra("random", shape[1], shape[0], tensor - tensor.transpose(0, 2, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            report = hlie.check_h_type(alg)
            expected = h_type_residual_whole(alg)
        assert not report.is_h_type
        if seed in OVERFLOW_RESIDUALS:
            assert repr(report.max_residual) == OVERFLOW_RESIDUALS[seed]
        assert np.array_equal(report.max_residual, expected, equal_nan=True)

    def test_degenerate_direct_sum_fails(self):
        # J_Z annihilates X_3, so the Clifford relation J_Z^T J_Z = I misses by exactly 1
        report = hlie.check_h_type(hlie.make_degenerate_direct_sum(), samples=500, seed=1)
        assert not report.is_h_type
        assert report.max_residual >= 0.5

    def test_samples_precondition(self):
        with pytest.raises(ValueError, match="samples"):
            hlie.check_h_type(hlie.algebra_from_name("H_C:1"), samples=0)

    def test_report_dict(self):
        report = hlie.check_h_type(hlie.algebra_from_name("H_C:1"), samples=64, seed=3)
        payload = report.to_dict()
        assert payload["algebra"] == "H_C:1"
        assert payload["seed"] == 3
        assert payload["is_h_type"] is True
        assert set(payload) >= {"fingerprint", "samples", "tolerance", "max_residual"}


class TestCheckJ2:
    @pytest.mark.parametrize("name", HEISENBERG_NAMES)
    def test_heisenberg_algebras_satisfy_j2(self, name):
        report = hlie.check_j2(hlie.algebra_from_name(name), samples=2000, seed=1)
        assert report.satisfies_j2
        assert report.max_residual <= 1e-12
        assert report.witness is None

    def test_vacuous_for_small_centers(self):
        for name in ["H_R:5", "H_C:2"]:
            report = hlie.check_j2(hlie.algebra_from_name(name), samples=10, seed=1)
            assert report.satisfies_j2 and report.max_residual == 0.0

    def test_truncated_quaternionic_fails_with_witness(self):
        report = hlie.check_j2(hlie.make_truncated_quaternionic(), samples=2000, seed=1)
        assert not report.satisfies_j2
        assert report.max_residual == pytest.approx(1.0, abs=1e-12)
        assert report.witness is not None

    def test_witness_outside_span_by_rank_augmentation(self):
        alg = hlie.make_truncated_quaternionic()
        assert_witness_raises_rank(alg, hlie.check_j2(alg, samples=500, seed=2).witness)

    def test_hand_computed_basis_witness(self):
        # J_{Z_1} J_{Z_2} X_1 acts as multiplication by the third imaginary
        # unit, orthogonal to span{J_{Z_1} X_1, J_{Z_2} X_1}
        alg = hlie.make_truncated_quaternionic()
        x = np.eye(4)[0]
        z1, z2 = np.eye(2)
        target = j_map(alg, z1) @ (j_map(alg, z2) @ x)
        g1 = j_map(alg, z1) @ x
        g2 = j_map(alg, z2) @ x
        assert abs(target @ g1) <= 1e-14
        assert abs(target @ g2) <= 1e-14
        assert np.linalg.norm(target) == pytest.approx(1.0, abs=1e-14)

    def test_precondition_requires_h_type(self):
        with pytest.raises(ValueError, match="not of Heisenberg type"):
            hlie.check_j2(hlie.make_degenerate_direct_sum(), samples=100, seed=1)

    def test_report_dict_carries_witness(self):
        report = hlie.check_j2(hlie.make_truncated_quaternionic(), samples=100, seed=1)
        payload = report.to_dict()
        assert payload["satisfies_j2"] is False
        assert set(payload["witness"]) == {"x", "z", "z_prime"}


class TestExactCertificates:
    """Both checks are identities in the structure constants: nothing is sampled."""

    @pytest.mark.parametrize("name", HEISENBERG_NAMES + ["truncated_HH", "degenerate_sum"])
    def test_reports_are_free_of_seed_and_samples(self, name):
        alg = hlie.algebra_from_name(name)
        htype, j2 = set(), set()
        for seed in (0, 1, 2**31 - 1):
            for samples in (1, 100, 10000):
                report = hlie.check_h_type(alg, samples=samples, seed=seed).to_dict()
                assert (report.pop("samples"), report.pop("seed")) == (samples, seed)
                htype.add(json.dumps(report, sort_keys=True))
                try:
                    report = hlie.check_j2(alg, samples=samples, seed=seed).to_dict()
                except ValueError as exc:
                    j2.add(str(exc))
                    continue
                assert (report.pop("samples"), report.pop("seed")) == (samples, seed)
                j2.add(json.dumps(report, sort_keys=True))
        assert len(htype) == 1 and len(j2) == 1, (htype, j2)

    @staticmethod
    def rotated_spec(alg, tmp_path, seed):
        """``alg`` in a random orthonormal basis of each layer, as an algebra-spec file."""
        rng = np.random.default_rng(seed)
        rot_v = np.linalg.qr(rng.standard_normal((alg.dim_v, alg.dim_v)))[0]
        rot_z = np.linalg.qr(rng.standard_normal((alg.dim_z, alg.dim_z)))[0]
        tensor = np.einsum("ka,ib,jc,abc->kij", rot_z, rot_v, rot_v, alg.structure)
        entries = [[i + 1, j + 1, k + 1, float(tensor[k, i, j])] for k in range(alg.dim_z)
                   for i in range(alg.dim_v) for j in range(i + 1, alg.dim_v)]
        path = tmp_path / f"{alg.label}-rotated.json"
        path.write_text(json.dumps({"label": alg.label, "dim_v": alg.dim_v,
                                    "dim_z": alg.dim_z, "entries": entries}))
        return hlie.load_algebra_spec(path)

    @pytest.mark.parametrize("name", ["H_H:2", "H_O"])
    def test_orthogonal_change_of_basis_keeps_the_certificates(self, name, tmp_path):
        alg = self.rotated_spec(hlie.algebra_from_name(name), tmp_path, seed=11)
        htype = hlie.check_h_type(alg)
        j2 = hlie.check_j2(alg)
        assert htype.is_h_type and htype.max_residual <= 1e-12
        assert j2.satisfies_j2 and j2.max_residual <= 1e-12

    def test_orthogonal_change_of_basis_keeps_the_control_failing(self, tmp_path):
        alg = self.rotated_spec(hlie.make_truncated_quaternionic(), tmp_path, seed=11)
        assert hlie.check_h_type(alg).max_residual <= 1e-12
        report = hlie.check_j2(alg)
        assert not report.satisfies_j2 and report.max_residual >= 0.1
        assert_witness_raises_rank(alg, report.witness)

    def test_perturbed_coefficient_fails_h_type_at_its_size(self, tmp_path):
        path = tmp_path / "ho.json"
        write_algebra_spec(hlie.make_heisenberg(AlgebraKind.OCTONION, 1), path)
        spec = json.loads(path.read_text())
        spec["entries"][0][3] = 1.0 + 1e-6
        path.write_text(json.dumps(spec))
        report = hlie.check_h_type(hlie.load_algebra_spec(path))
        assert not report.is_h_type
        assert 1e-7 <= report.max_residual <= 1e-5


class TestConstructors:
    def test_quaternionic_block(self):
        alg = hlie.make_heisenberg(AlgebraKind.QUATERNION, 1)
        assert (alg.dim_v, alg.dim_z) == (4, 3)
        assert np.array_equal(bracket(alg, np.eye(4)[0], np.eye(4)[1]), [1, 0, 0])
        assert np.array_equal(bracket(alg, np.eye(4)[2], np.eye(4)[3]), [1, 0, 0])

    def test_real_is_abelian(self):
        alg = hlie.make_heisenberg(AlgebraKind.REAL, 5)
        assert (alg.dim_v, alg.dim_z) == (5, 0)
        assert alg.structure.shape == (0, 5, 5)

    def test_octonion_epsilon_bracket(self):
        alg = hlie.make_heisenberg(AlgebraKind.OCTONION, 1)
        assert (alg.dim_v, alg.dim_z) == (8, 7)
        # eps_124 = +1, so [X_1, X_2] = Z_4
        assert np.array_equal(bracket(alg, np.eye(8)[1], np.eye(8)[2]), np.eye(7)[3])

    def test_octonion_rejects_extra_blocks(self):
        with pytest.raises(ValueError, match="octonion"):
            hlie.make_heisenberg(AlgebraKind.OCTONION, 2)

    def test_truncation_restricts_structure(self):
        full = hlie.make_heisenberg(AlgebraKind.QUATERNION, 1)
        cut = hlie.make_truncated_quaternionic()
        assert np.array_equal(cut.structure, full.structure[:2])

    def test_labels(self):
        assert hlie.make_heisenberg(AlgebraKind.COMPLEX, 3).label == "H_C:3"
        assert hlie.make_heisenberg(AlgebraKind.OCTONION, 1).label == "H_O"

    def test_from_name(self):
        assert hlie.algebra_from_name("H_H:2").dim_v == 8
        assert hlie.algebra_from_name("H_O").dim_z == 7
        assert hlie.algebra_from_name("H_O:1").dim_z == 7
        with pytest.raises(ValueError, match="more than one block"):
            hlie.algebra_from_name("H_O:2")
        with pytest.raises(ValueError, match="unknown algebra name"):
            hlie.algebra_from_name("H_X:1")
        with pytest.raises(ValueError, match="block count"):
            hlie.algebra_from_name("H_C:0")
        with pytest.raises(ValueError, match="invalid block count"):
            hlie.algebra_from_name("H_C:abc")

    @pytest.mark.parametrize("pattern", hlie.BUILTIN_NAMES)
    def test_every_builtin_pattern_resolves(self, pattern):
        # a pattern ending in ":n" takes a block count n; the CLI help lists these
        names = ([pattern.replace(":n", f":{n}") for n in (1, 2)] if pattern.endswith(":n")
                 else [pattern])
        for name in names:
            assert hlie.algebra_from_name(name).label == name

    def test_antisymmetry_validation(self):
        bad = np.zeros((1, 2, 2))
        bad[0, 0, 1] = 1.0  # missing the antisymmetric partner
        with pytest.raises(ValueError, match="antisymmetric"):
            hlie.HTypeAlgebra("bad", 2, 1, bad)

    def test_fingerprint_tracks_structure_not_label(self):
        a = hlie.make_heisenberg(AlgebraKind.COMPLEX, 1)
        b = hlie.HTypeAlgebra("renamed", a.dim_v, a.dim_z, a.structure)
        assert a.fingerprint == b.fingerprint
        c = hlie.make_heisenberg(AlgebraKind.COMPLEX, 2)
        assert a.fingerprint != c.fingerprint


class TestBuiltinFingerprints:
    # taken before the builtin tensors were derived from algebra.multiplication_tensor,
    # so that no later derivation changes a bit of a structure tensor unnoticed
    @pytest.mark.parametrize("name, fingerprint", [
        ("H_R:3", "1222d75e4cd288f7"),
        ("H_C:1", "5c11fd2a05a12695"),
        ("H_C:2", "aaf13028ff3b71b5"),
        ("H_C:3", "59231efe073893d7"),
        ("H_H:1", "72e213ec233485f4"),
        ("H_H:2", "080d6289eb41c4d6"),
        ("H_H:3", "8b788815a3ff5ec0"),
        ("H_O", "a888eb7a2b2211ba"),
        ("truncated_HH", "201156901fdd5c8f"),
        ("degenerate_sum", "0db3bbdf1493d7df"),
    ])
    def test_fingerprint_is_pinned(self, name, fingerprint):
        assert hlie.algebra_from_name(name).fingerprint == fingerprint


class TestAlgebraConsistency:
    @pytest.mark.parametrize("kind,n", [
        (AlgebraKind.REAL, 3),
        (AlgebraKind.COMPLEX, 1),
        (AlgebraKind.COMPLEX, 3),
        (AlgebraKind.QUATERNION, 1),
        (AlgebraKind.QUATERNION, 2),
        (AlgebraKind.OCTONION, 1),
    ], ids=lambda v: getattr(v, "value", v))
    def test_structure_matches_division_algebra_formula(self, kind, n):
        # the bracket equals -sum_i Im(x_i conj(y_i)) blockwise, with Im(K) = z via e_k <-> Z_k
        alg = hlie.make_heisenberg(kind, n)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10000, alg.dim_v))
        y = rng.standard_normal((10000, alg.dim_v))
        rhs = np.zeros((10000, alg.dim_z))
        d = kind.dim
        for i in range(n):
            xi, yi = x[:, i * d:(i + 1) * d], y[:, i * d:(i + 1) * d]
            rhs -= al.mul_arrays(kind, xi, conj(yi))[:, 1:]
        assert np.max(np.abs(hlie.bracket_arrays(alg, x, y) - rhs), initial=0.0) <= 1e-12

    def test_hand_evaluation_complex(self):
        # x = 1, y = i: -Im(x conj(y)) = -Im(-i) = i, matching [X_1, Y_1] = Z
        alg = hlie.make_heisenberg(AlgebraKind.COMPLEX, 1)
        got = bracket(alg, [1.0, 0.0], [0.0, 1.0])
        assert np.array_equal(got, [1.0])

    def test_equal_arguments_vanish(self):
        rng = np.random.default_rng(3)
        alg = hlie.make_heisenberg(AlgebraKind.QUATERNION, 1)
        x = rng.standard_normal(4)
        assert np.array_equal(bracket(alg, x, x), np.zeros(3))


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        alg = hlie.make_heisenberg(AlgebraKind.QUATERNION, 2)
        path = tmp_path / "hh2.json"
        write_algebra_spec(alg, path)
        loaded = hlie.load_algebra_spec(path)
        assert loaded.label == alg.label
        assert np.array_equal(loaded.structure, alg.structure)

    def test_loader_antisymmetrizes(self, tmp_path):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps({
            "label": "toy", "dim_v": 2, "dim_z": 1, "entries": [[1, 2, 1, 1.0]]
        }))
        alg = hlie.load_algebra_spec(path)
        assert alg.structure[0, 0, 1] == 1.0
        assert alg.structure[0, 1, 0] == -1.0

    @pytest.mark.parametrize("entries,message", [
        ([[2, 1, 1, 1.0]], "1 <= i < j"),
        ([[1, 1, 1, 1.0]], "1 <= i < j"),
        ([[1, 2, 5, 1.0]], "center index"),
        ([[1, 2, 1, 1.0], [1, 2, 1, 2.0]], "duplicate"),
        ([[1, 2, 1]], "not \\[i, j, k, value\\]"),
    ])
    def test_loader_validation(self, tmp_path, entries, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "label": "bad", "dim_v": 2, "dim_z": 1, "entries": entries
        }))
        with pytest.raises(ValueError, match=message):
            hlie.load_algebra_spec(path)

    def test_loader_takes_integral_floats(self, tmp_path):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps({
            "label": "toy", "dim_v": 2.0, "dim_z": 1, "entries": [[1.0, 2, 1.0, 1.0]]
        }))
        alg = hlie.load_algebra_spec(path)
        assert (alg.dim_v, alg.dim_z) == (2, 1) and alg.structure[0, 0, 1] == 1.0

    def test_loader_caps_the_tensor_before_allocating(self, tmp_path, monkeypatch):
        def zeros(*args, **kwargs):
            raise AssertionError("the tensor was allocated")

        path = tmp_path / "big.json"
        path.write_text(json.dumps({"label": "big", "dim_v": 4097, "dim_z": 1, "entries": []}))
        monkeypatch.setattr(hlie.np, "zeros", zeros)
        with pytest.raises(ValueError, match="exceeds the cap of 16777216"):
            hlie.load_algebra_spec(path)

    def test_loader_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"label": "x", "dim_v": 2, "dim_z": 1}))
        with pytest.raises(ValueError, match="missing the field"):
            hlie.load_algebra_spec(path)

    def test_loader_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            hlie.load_algebra_spec(path)

    @pytest.mark.parametrize("text", [b'{"dim_v": 1' + b"0" * 5000 + b"}", b"\xff{}"],
                             ids=["5001-digit-integer", "not-utf8"])
    def test_loader_unreadable_text_is_malformed(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=f"malformed algebra spec {path}"):
            hlie.load_algebra_spec(path)

    def test_loaded_spec_passes_checks(self, tmp_path):
        path = tmp_path / "ho.json"
        write_algebra_spec(hlie.make_heisenberg(AlgebraKind.OCTONION, 1), path)
        alg = hlie.load_algebra_spec(path)
        assert hlie.check_h_type(alg, samples=200, seed=0).is_h_type
        assert hlie.check_j2(alg, samples=200, seed=0).satisfies_j2
