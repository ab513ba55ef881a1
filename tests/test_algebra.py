"""Division-algebra arithmetic: multiplication tables, composition law,
conjugation, and the epsilon tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heislab import algebra as al
from heislab.algebra import AlgebraKind
from heislab.util import _CHUNK, canonical_json
from oracles import ROW_COUNTS, check_arithmetic_whole, conj, mul_arrays_einsum, worker_growth_mib

ALL_KINDS = list(AlgebraKind)


def brute_force_product(kind, a, b):
    """Independent oracle: expand the product bilinearly over the basis rules.

    Uses only the raw epsilon triples (antisymmetrized by permutation
    parity), not the precomputed tables under test.
    """
    eps = {}
    triples = {AlgebraKind.QUATERNION: al.QUATERNION_TRIPLES,
               AlgebraKind.OCTONION: al.OCTONION_TRIPLES}.get(kind, ())
    for (i, j, k) in triples:
        for (x, y, z), sign in (((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                                ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1)):
            eps[(x, y, z)] = sign
    out = np.zeros(kind.dim)
    for i in range(kind.dim):
        for j in range(kind.dim):
            c = a[i] * b[j]
            if c == 0.0:
                continue
            if i == 0:
                out[j] += c
            elif j == 0:
                out[i] += c
            elif i == j:
                out[0] -= c
            else:
                for k in range(1, kind.dim):
                    if (i, j, k) in eps:
                        out[k] += eps[(i, j, k)] * c
    return out


def octonion_eps():
    """eps of the octonions, the imaginary block of the multiplication tensor."""
    return al.multiplication_tensor(AlgebraKind.OCTONION)[1:, 1:, 1:]


class TestEpsilonTensor:
    def test_plus_one_on_cyclic_orbit(self):
        # the block is 0-based: eps_ijk is entry [i - 1, j - 1, k - 1]
        eps = octonion_eps()
        for (i, j, k) in al.OCTONION_TRIPLES:
            assert eps[i - 1, j - 1, k - 1] == 1
            assert eps[j - 1, k - 1, i - 1] == 1
            assert eps[k - 1, i - 1, j - 1] == 1

    def test_complete_antisymmetry(self):
        eps = octonion_eps()
        assert np.array_equal(eps, -eps.transpose(1, 0, 2))
        assert np.array_equal(eps, -eps.transpose(0, 2, 1))
        assert np.array_equal(eps, -eps.transpose(2, 1, 0))

    def test_seven_independent_triples(self):
        eps = octonion_eps()
        assert np.all(np.isin(eps, (-1.0, 0.0, 1.0))) and not eps.flags.writeable
        assert np.count_nonzero(eps == 1) == 21  # 7 triples x 3 cyclic orders
        assert np.count_nonzero(eps == -1) == 21


def mul(kind, a, b):
    """Product of two single elements through the rowwise kernel."""
    return al.mul_arrays(kind, np.atleast_2d(a), np.atleast_2d(b))[0]


class TestBasisProducts:
    def test_octonion_e1_e2_is_e4(self):
        e = np.eye(8)
        assert np.array_equal(mul(AlgebraKind.OCTONION, e[1], e[2]), e[4])

    def test_unit_element(self):
        rng = np.random.default_rng(0)
        for kind in ALL_KINDS:
            a = rng.standard_normal(kind.dim)
            one = np.eye(kind.dim)[0]
            assert np.array_equal(mul(kind, one, a), a)
            assert np.array_equal(mul(kind, a, one), a)

    def test_imaginary_square_is_minus_one(self):
        for kind in ALL_KINDS:
            e = np.eye(kind.dim)
            for i in range(1, kind.dim):
                assert np.array_equal(mul(kind, e[i], e[i]), -e[0])

    def test_bilinear_expansion_against_oracle(self):
        # (e_1 + e_2) e_4 = e_1 - e_2, so its squared norm is 2
        kind = AlgebraKind.OCTONION
        e = np.eye(8)
        a = e[1] + e[2]
        product = mul(kind, a, e[4])
        assert np.array_equal(product, brute_force_product(kind, a, e[4]))
        assert np.array_equal(product, e[1] - e[2])
        assert np.linalg.norm(product) ** 2 == pytest.approx(2.0, abs=1e-14)

    def test_random_products_against_oracle(self):
        # and bitwise the einsum form
        rng = np.random.default_rng(1)
        for kind in ALL_KINDS:
            a = rng.standard_normal((20, kind.dim))
            b = rng.standard_normal((20, kind.dim))
            got = al.mul_arrays(kind, a, b)
            for row, x, y in zip(got, a, b):
                assert np.allclose(row, brute_force_product(kind, x, y), atol=1e-14)
            assert np.array_equal(got, mul_arrays_einsum(kind, a, b))

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_row_blocks(self, kind, rows):
        rng = np.random.default_rng(rows)
        a = rng.standard_normal((rows, kind.dim))
        b = rng.standard_normal((rows, kind.dim))
        assert np.array_equal(al.mul_arrays(kind, a, b), mul_arrays_einsum(kind, a, b))

    def test_quaternion_table_is_standard(self):
        k = AlgebraKind.QUATERNION
        e = np.eye(4)
        assert np.array_equal(mul(k, e[1], e[2]), e[3])
        assert np.array_equal(mul(k, e[2], e[3]), e[1])
        assert np.array_equal(mul(k, e[3], e[1]), e[2])

    def test_octonions_are_not_associative(self):
        k = AlgebraKind.OCTONION
        e = np.eye(8)
        left = mul(k, mul(k, e[1], e[2]), e[3])
        right = mul(k, e[1], mul(k, e[2], e[3]))
        assert np.array_equal(left, -e[6])
        assert np.array_equal(right, e[6])


class TestConjugation:
    def test_conj_negates_imaginary_part(self):
        a = np.array([1.0, 0.0, 0.0, 1.0])  # e_0 + e_3
        assert np.array_equal(conj(a), [1.0, 0.0, 0.0, -1.0])

    def test_im_of_unit_is_zero(self):
        # the unit is real: conjugation fixes it
        for kind in ALL_KINDS:
            one = np.eye(kind.dim)[0]
            assert np.array_equal(conj(one), one)

    def test_norm_is_euclidean(self):
        # (e_1 + e_2) conj(e_1 + e_2) = |e_1 + e_2|^2 e_0 = 2 e_0
        k = AlgebraKind.OCTONION
        a = np.eye(8)[1] + np.eye(8)[2]
        assert np.array_equal(mul(k, a, conj(a)), 2.0 * np.eye(8)[0])

    def test_a_times_conj_a(self):
        rng = np.random.default_rng(2)
        for kind in ALL_KINDS:
            a = rng.standard_normal((50, kind.dim))
            prod = al.mul_arrays(kind, a, conj(a))
            expected = np.zeros_like(a)
            expected[:, 0] = np.sum(a * a, axis=1)
            assert np.allclose(prod, expected, atol=1e-13)
            for row, x in zip(prod, a):
                assert np.allclose(row, brute_force_product(kind, x, conj(x)), atol=1e-13)

    def test_re_reads_unit_coefficient(self):
        # the unit coefficient of a conj(b) is the inner product <a, b>
        rng = np.random.default_rng(7)
        for kind in ALL_KINDS:
            a = rng.standard_normal((50, kind.dim))
            b = rng.standard_normal((50, kind.dim))
            real = al.mul_arrays(kind, a, conj(b))[:, 0]
            assert np.allclose(real, np.sum(a * b, axis=1), atol=1e-13)


class TestCompositionLaw:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_bulk_relative_residual(self, kind):
        rng = np.random.default_rng(3)
        a = al.random_elements(kind, 100000, rng)
        b = al.random_elements(kind, 100000, rng)
        ab = al.mul_arrays(kind, a, b)
        scale = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        residual = np.abs(np.linalg.norm(ab, axis=1) - scale) / scale
        assert np.max(residual) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(coeffs=arrays(np.float64, (2, 8),
                         elements=st.floats(min_value=-10, max_value=10)))
    def test_composition_law_hypothesis(self, coeffs):
        a, b = coeffs
        if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
            return
        ab = al.mul_arrays(AlgebraKind.OCTONION, a[None], b[None])[0]
        assert np.linalg.norm(ab) == pytest.approx(
            np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12)


class TestAssociativity:
    @pytest.mark.parametrize("kind", [AlgebraKind.REAL, AlgebraKind.COMPLEX,
                                      AlgebraKind.QUATERNION], ids=lambda k: k.value)
    def test_associative_kinds(self, kind):
        rng = np.random.default_rng(4)
        a = al.random_elements(kind, 20000, rng)
        b = al.random_elements(kind, 20000, rng)
        c = al.random_elements(kind, 20000, rng)
        left = al.mul_arrays(kind, al.mul_arrays(kind, a, b), c)
        right = al.mul_arrays(kind, a, al.mul_arrays(kind, b, c))
        scale = (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
                 * np.linalg.norm(c, axis=1))[:, None]
        assert np.max(np.abs(left - right) / scale) <= 1e-14

    def test_octonion_alternativity(self):
        kind = AlgebraKind.OCTONION
        rng = np.random.default_rng(5)
        a = al.random_elements(kind, 20000, rng)
        b = al.random_elements(kind, 20000, rng)
        scale = (np.linalg.norm(a, axis=1) ** 2 * np.linalg.norm(b, axis=1))[:, None]
        aab = al.mul_arrays(kind, a, al.mul_arrays(kind, a, b))
        aa_b = al.mul_arrays(kind, al.mul_arrays(kind, a, a), b)
        assert np.max(np.abs(aab - aa_b) / scale) <= 1e-13
        abb = al.mul_arrays(kind, al.mul_arrays(kind, a, b), b)
        a_bb = al.mul_arrays(kind, a, al.mul_arrays(kind, b, b))
        scale = (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1) ** 2)[:, None]
        assert np.max(np.abs(abb - a_bb) / scale) <= 1e-13


class TestCheckArithmetic:
    def test_reports_each_kind(self):
        report = al.check_arithmetic(ALL_KINDS, 5000, seed=3)
        results = report.results
        assert [r["kind"] for r in results] == [k.value for k in ALL_KINDS]
        assert all(r["passed"] for r in results) and report.passed
        assert "alternativity_residual" in results[-1]
        assert all("associativity_residual" in r for r in results[:-1])

    def test_tolerance_is_applied(self):
        report = al.check_arithmetic([AlgebraKind.OCTONION], 1000, seed=3, tol=0.0)
        (entry,) = report.results
        assert entry["composition_residual"] > 0.0
        assert entry["passed"] is False and report.passed is False

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_must_be_positive(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            al.check_arithmetic(ALL_KINDS, samples)

    @pytest.mark.parametrize("kinds", [ALL_KINDS, [AlgebraKind.OCTONION]],
                             ids=["all", "octonion"])
    @pytest.mark.parametrize("samples", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_slices_match_whole_arrays(self, kinds, samples):
        assert repr(al.check_arithmetic(kinds, samples, seed=5).to_dict()) == \
            repr(check_arithmetic_whole(kinds, samples, seed=5).to_dict())

    def test_report_is_free_of_the_worker_count(self, monkeypatch):
        sampled = al._sampled
        workers = []
        monkeypatch.setattr(al, "_sampled", lambda fn, samples, seed, count=1: (
            workers.append(count), sampled(fn, samples, seed, count))[1])
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(al, "_cpu_count", lambda: cpus)
            reports.append(canonical_json(al.check_arithmetic(
                ALL_KINDS, 3 * _CHUNK + 5, seed=7).to_dict()))
        assert reports[0] == reports[1] == reports[2]
        assert workers == [1] * 4 + [2] * 4 + [3] * 4

    @pytest.mark.parametrize("kind, draw", [(AlgebraKind.QUATERNION, 6),
                                            (AlgebraKind.OCTONION, 4)],
                             ids=["quaternion", "octonion"])
    def test_nan_in_a_later_slice_fails(self, monkeypatch, kind, draw):
        # each chunk draws a, b and, on a quaternion kind, c: draw 6 of a
        # quaternion kind is the second chunk's c, and draw 4 of the
        # octonions the second chunk's b
        real = al.random_elements
        draws = []

        def planted(kind, count, rng):
            x = real(kind, count, rng)
            draws.append(count)
            if len(draws) == draw:
                x[3, 1] = np.nan
            return x

        monkeypatch.setattr(al, "random_elements", planted)
        # one worker, so that the draws are counted in this process
        monkeypatch.setattr(al, "_cpu_count", lambda: 1)
        report = al.check_arithmetic([kind], 2 * _CHUNK + 7, seed=2)
        (entry,) = report.results
        name = "alternativity_residual" if kind is AlgebraKind.OCTONION else "associativity_residual"
        assert draws[draw - 1] == _CHUNK
        assert np.isnan(entry[name])
        assert entry["passed"] is False and report.passed is False


class TestMemory:
    def test_check_arithmetic_holds_one_slice(self):
        # the whole arrays of 100,000 samples took 47 MiB traced, whole a and b
        # with c in slices 12.6 MiB, and one chunk of every operand 7.5 MiB; on
        # two worker processes, the largest rose 3.4-3.5 MiB above its parent's
        # peak, and 6.0 MiB with a 2 MiB array added to each chunk
        assert worker_growth_mib(
            "from heislab import algebra as al\nal._cpu_count = lambda: 2",
            "al.check_arithmetic(list(al.AlgebraKind), 100000, seed=1)") <= 4.5


class TestImaginaryBracket:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_commutator_is_twice_imaginary_part(self, kind):
        rng = np.random.default_rng(6)
        a = al.random_elements(kind, 5000, rng)
        b = al.random_elements(kind, 5000, rng)
        a[:, 0] = 0.0
        b[:, 0] = 0.0
        ab = al.mul_arrays(kind, a, b)
        ba = al.mul_arrays(kind, b, a)
        double_im = 2.0 * ab
        double_im[:, 0] = 0.0
        assert np.allclose(ab - ba, double_im, atol=1e-12)
