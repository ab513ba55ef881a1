"""The gauge inversion: closed form, involutivity, the distance identity,
conjugated inversions, and the two-point transporter."""

import json
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heislab import distortion, hgroup, hlie, inversion, util
from heislab.cli import run
from heislab.inversion import ExtendedPoints
from heislab.util import canonical_json
from oracles import inversion_chunk_whole, peak_mib, reject_constant

H_TYPE_NAMES = ["H_R:5", "H_C:1", "H_C:3", "H_H:1", "H_H:2", "H_O"]


def builtin(name):
    return hlie.algebra_from_name(name)


def sample(alg, count, seed, radius=1.0):
    return hgroup.sample_arrays(alg, count, radius, seed)


def finite(v, z):
    return ExtendedPoints(v, z, np.zeros(len(v), dtype=bool))


def infinite(alg, count):
    return ExtendedPoints(np.zeros((count, alg.dim_v)), np.zeros((count, alg.dim_z)),
                          np.ones(count, dtype=bool))


def dist(alg, a, b):
    """Gauge distances of finite rows."""
    assert not (np.any(a.inf) or np.any(b.inf))
    return hgroup.gauge_dist_arrays(alg, a.v, a.z, b.v, b.z)


class TestSigmaClosedForm:
    def test_zero_center_reflects(self):
        # gauge((v, 0)) = |v|/2, so |v| = 2 sits on the unit sphere and maps to -v
        alg = builtin("H_H:1")
        sv, sz = inversion.sigma_arrays(alg, np.array([[2.0, 0.0, 0.0, 0.0]]), np.zeros((1, 3)))
        assert np.allclose(sv, [[-2.0, 0.0, 0.0, 0.0]], atol=1e-15)
        assert np.array_equal(sz, np.zeros((1, 3)))

    def test_zero_horizontal_inverts_center(self):
        alg = builtin("H_C:1")
        sv, sz = inversion.sigma_arrays(alg, np.zeros((1, 2)), np.array([[0.25]]))
        assert np.array_equal(sv, [[0.0, 0.0]])
        assert np.allclose(sz, [[-4.0]], atol=1e-14)

    def test_abelian_case_is_scaled_mobius_reflection(self):
        # with no center, sigma(v) = -4 v / |v|^2
        alg = builtin("H_R:5")
        rng = np.random.default_rng(0)
        v = rng.standard_normal((100, 5))
        sv, _ = inversion.sigma_arrays(alg, v, np.zeros((100, 0)))
        expected = -4.0 * v / np.sum(v * v, axis=1)[:, None]
        assert np.allclose(sv, expected, atol=1e-12)

    def test_undefined_at_identity(self):
        alg = builtin("H_C:1")
        with pytest.raises(ValueError, match="undefined at the identity"):
            inversion.sigma_arrays(alg, np.array([[1.0, 1.0], [0.0, 0.0]]), np.zeros((2, 1)))

    def test_rows_far_from_unit_scale(self):
        # sigma(v, z) = (-4 v / |v|^2, 0) and (0, -z / |z|^2) on the axes
        alg = builtin("H_C:1")
        v = np.array([[1e-160, 0.0], [2e200, 0.0], [0.0, 0.0], [np.inf, 0.0], [np.nan, 1.0]])
        z = np.array([[0.0], [0.0], [1e-300], [0.0], [0.0]])
        sv, sz = inversion.sigma_arrays(alg, v, z)
        assert sv[:3, 0] == pytest.approx([-4e160, -2e-200, 0.0], rel=1e-15)
        assert sz[:3, 0] == pytest.approx([0.0, 0.0, -1e300], rel=1e-15)
        assert not np.any(np.all(np.isfinite(np.hstack([sv, sz])[3:]), axis=1))
        with pytest.raises(ValueError, match="undefined at the identity"):
            inversion.sigma_arrays(alg, np.array([[2e200, 0.0], [0.0, 0.0]]), np.zeros((2, 1)))

    @pytest.mark.parametrize("name", H_TYPE_NAMES + ["truncated_HH"])
    def test_involution(self, name):
        alg = builtin(name)
        v, z = sample(alg, 100000, seed=1)
        g = hgroup.gauge_arrays(alg, v, z)
        keep = g > 1e-8
        v, z = v[keep], z[keep]
        sv, sz = inversion.sigma_arrays(alg, v, z)
        rv, rz = inversion.sigma_arrays(alg, sv, sz)
        worst = np.max(np.abs(rv - v))
        if alg.dim_z:
            worst = max(worst, np.max(np.abs(rz - z)))
        assert worst <= 1e-10

    @pytest.mark.parametrize("name", H_TYPE_NAMES + ["truncated_HH"])
    def test_gauge_reciprocity(self, name):
        alg = builtin(name)
        v, z = sample(alg, 100000, seed=2)
        g = hgroup.gauge_arrays(alg, v, z)
        keep = g > 1e-8
        sv, sz = inversion.sigma_arrays(alg, v[keep], z[keep])
        product = hgroup.gauge_arrays(alg, sv, sz) * g[keep]
        assert np.max(np.abs(product - 1.0)) <= 1e-11


class TestSigmaCallersLeaveTheirInputs:
    """sigma is written over the coordinate-major copies it is given: the public
    callers hand it fresh copies, so the caller's arrays keep every byte."""

    @staticmethod
    def points(alg, radius):
        """A sample with one row on the center; at radii 1e-77 and 1e77 the
        gauge^4 of every row leaves [2^-960, 2^960], so sigma redoes each
        row at unit scale."""
        v, z = sample(alg, 5000, seed=21, radius=radius)
        v[7] = 0.0
        n4 = hgroup._gauge4(v.T, z.T)[1]
        redo = ~((n4 >= 2.0 ** -960) & (n4 <= 2.0 ** 960))
        assert np.all(redo) if radius != 1.0 else not np.any(redo)
        return v, z

    @pytest.mark.parametrize("radius", [1e-77, 1.0, 1e77])
    @pytest.mark.parametrize("name", ["H_C:1", "H_O", "truncated_HH"])
    def test_sigma_arrays_and_inversion_map(self, name, radius):
        alg = builtin(name)
        v, z = self.points(alg, radius)
        before = v.tobytes(), z.tobytes()
        sv, sz = inversion.sigma_arrays(alg, v, z)
        assert (v.tobytes(), z.tobytes()) == before
        image = partial(inversion.sigma_arrays, alg)(v, z)
        assert (v.tobytes(), z.tobytes()) == before
        assert image[0].tobytes() == sv.tobytes() and image[1].tobytes() == sz.tobytes()

    @pytest.mark.parametrize("radius", [1e-77, 1.0, 1e77])
    def test_phi_at(self, radius):
        alg = builtin("H_H:1")
        v, z = self.points(alg, radius)
        inf = np.zeros(len(v), dtype=bool)
        inf[::5] = True
        x = ExtendedPoints(v[::-1].copy(), z[::-1].copy(), inf[::-1].copy())
        w = ExtendedPoints(v, z, inf)
        before = [a.tobytes() for a in (*x, *w)]
        inversion.phi_at(alg, x, w)
        assert [a.tobytes() for a in (*x, *w)] == before


class TestVerifyInversion:
    @pytest.mark.parametrize("name", ["H_C:2", "H_O"])
    def test_division_algebra_groups_are_exact(self, name):
        report = inversion.verify_inversion(builtin(name), samples=20000, seed=7)
        assert report.is_exact_inversion
        assert report.max_relative_deviation <= 1e-9

    def test_truncated_control_is_falsified(self):
        alg = builtin("truncated_HH")
        report = inversion.verify_inversion(alg, samples=20000, seed=7)
        assert not report.is_exact_inversion
        assert report.max_relative_deviation >= 1e-3
        p, q = report.worst_pair
        # replay the worst pair through the identity by hand
        pv, pz, qv, qz = p.v[None], p.z[None], q.v[None], q.z[None]
        d_image = hgroup.gauge_dist_arrays(alg, *inversion.sigma_arrays(alg, pv, pz),
                                           *inversion.sigma_arrays(alg, qv, qz))[0]
        r = (d_image * hgroup.gauge_arrays(alg, pv, pz)[0] * hgroup.gauge_arrays(alg, qv, qz)[0]
             / hgroup.gauge_dist_arrays(alg, pv, pz, qv, qz)[0])
        assert abs(r - 1.0) == pytest.approx(report.max_relative_deviation, rel=1e-12)

    @settings(max_examples=6, deadline=None)
    @given(log_radius=st.floats(min_value=-150.0, max_value=150.0))
    @example(log_radius=-150.0)
    @example(log_radius=150.0)
    def test_verdict_is_free_of_the_scale(self, log_radius):
        radius = min(max(10.0 ** log_radius, 1e-150), 1e150)
        for name in H_TYPE_NAMES:
            report = inversion.verify_inversion(builtin(name), samples=2000, seed=3, radius=radius)
            assert report.is_exact_inversion and report.pairs_used == 2000, name
        control = inversion.verify_inversion(builtin("truncated_HH"), samples=2000, seed=3,
                                             radius=radius)
        assert not control.is_exact_inversion and control.max_relative_deviation > 0.1

    def test_threads_do_not_change_the_report(self):
        alg = builtin("H_H:1")
        a = inversion.verify_inversion(alg, samples=50000, seed=5, threads=1)
        b = inversion.verify_inversion(alg, samples=50000, seed=5, threads=4)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_must_be_positive(self, threads):
        with pytest.raises(ValueError, match="^threads must be >= 1$"):
            inversion.verify_inversion(builtin("H_C:1"), samples=100, threads=threads)

    def test_same_seed_reproduces(self):
        alg = builtin("H_C:1")
        a = inversion.verify_inversion(alg, samples=30000, seed=9)
        b = inversion.verify_inversion(alg, samples=30000, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_report_fields(self):
        report = inversion.verify_inversion(builtin("H_C:1"), samples=1000, seed=3)
        payload = report.to_dict()
        assert payload["algebra"] == "H_C:1"
        assert set(payload) >= {"fingerprint", "samples", "seed", "tolerance",
                                "max_relative_deviation", "is_exact_inversion",
                                "worst_pair"}
        assert set(payload["worst_pair"]["p"]) == {"v", "z"}

    def test_requires_h_type(self):
        with pytest.raises(ValueError, match="not of Heisenberg type"):
            inversion.verify_inversion(hlie.make_degenerate_direct_sum(),
                                       samples=100, seed=0)

    def test_samples_precondition(self):
        with pytest.raises(ValueError, match="samples"):
            inversion.verify_inversion(builtin("H_C:1"), samples=0)


class TestVerifyReduction:
    """The chunk-order reduction of verify_inversion and the pairs it keeps."""

    SAMPLES = 2 * util._CHUNK + 500  # three chunks

    @staticmethod
    def nan_in_chunks(monkeypatch, chunks):
        real = inversion._inversion_chunk

        def patched(alg, count, radius, rng):
            chunk = rng.bit_generator.seed_seq.spawn_key[-1]
            used, dev, row, start = real(alg, count, radius, rng)
            return used, (np.nan if chunk in chunks else dev), row, start

        monkeypatch.setattr(inversion, "_inversion_chunk", patched)

    @pytest.mark.parametrize("chunks", [{1}, {0, 1, 2}, {1, 2}])
    def test_nan_chunk_wins(self, monkeypatch, chunks):
        alg = builtin("truncated_HH")
        finite = inversion.verify_inversion(alg, samples=self.SAMPLES, seed=4)
        first = min(chunks)
        size = [util._CHUNK, util._CHUNK, 500][first]
        child = np.random.SeedSequence(4).spawn(3)[first]
        row = inversion._inversion_chunk(alg, size, 1.0, np.random.default_rng(child))[2]
        rng = np.random.default_rng(child)
        p, q = (hgroup.sample_with_rng(alg, size, 1.0, rng) for _ in range(2))
        self.nan_in_chunks(monkeypatch, chunks)
        reports = [inversion.verify_inversion(alg, samples=self.SAMPLES, seed=4, threads=t)
                   for t in (1, 2)]
        assert canonical_json(reports[0].to_dict()) == canonical_json(reports[1].to_dict())
        report = reports[0]
        assert np.isnan(report.max_relative_deviation) and not report.is_exact_inversion
        assert report.pairs_used == finite.pairs_used
        assert np.array_equal(report.worst_pair.p.v, p[0][row])
        assert np.array_equal(report.worst_pair.q.z, q[1][row])

    def test_finite_reports_do_not_change(self, monkeypatch):
        alg = builtin("truncated_HH")
        before = inversion.verify_inversion(alg, samples=self.SAMPLES, seed=4)
        self.nan_in_chunks(monkeypatch, set())
        after = inversion.verify_inversion(alg, samples=self.SAMPLES, seed=4, threads=2)
        assert canonical_json(before.to_dict()) == canonical_json(after.to_dict())

    def test_expect_exact_fails_on_nan(self, monkeypatch, tmp_path, capsys):
        self.nan_in_chunks(monkeypatch, {0})
        out = tmp_path / "verify.json"
        assert run(["invert", "verify", "--algebra", "H_C:1", "--samples", "1000",
                    "--expect", "exact", "--output", str(out), "--no-timestamp"]) == 2
        text = out.read_text()
        assert '"max_relative_deviation": "NaN"' in text
        assert json.loads(text, parse_constant=reject_constant)["max_relative_deviation"] == "NaN"
        assert capsys.readouterr().err == "check failed: H_C:1: max |r - 1| = nan exceeds tolerance\n"

    @pytest.mark.parametrize("planted_row", [0, 4103])
    def test_coincident_pair_is_dropped(self, monkeypatch, planted_row):
        # at row 0, and at a later row, so that the worst row maps back
        # through the kept rows
        alg = builtin("truncated_HH")
        clean = inversion.verify_inversion(alg, samples=5000, seed=6)
        real = inversion.sample_with_rng
        draws = []

        def planted(alg, count, radius, rng):
            v, z = real(alg, count, radius, rng)
            draws.append((v, z))
            if len(draws) in (2, 4):  # q of the only chunk and of its replay: one row repeats p's
                pv, pz = draws[-2]
                row = planted_row
                if np.array_equal(pv[row], clean.worst_pair.p.v):
                    row += 1
                v[row], z[row] = pv[row], pz[row]
            return v, z

        monkeypatch.setattr(inversion, "sample_with_rng", planted)
        report = inversion.verify_inversion(alg, samples=5000, seed=6)
        assert len(draws) == 4  # p and q of the chunk, then of the worst pair's replay
        assert report.pairs_used == clean.pairs_used - 1 == 4999
        assert report.max_relative_deviation == clean.max_relative_deviation
        assert canonical_json({"w": report.to_dict()["worst_pair"]}) == \
            canonical_json({"w": clean.to_dict()["worst_pair"]})

    @pytest.mark.parametrize("planted", [set(), {1}, {2}])
    def test_worst_pair_is_the_drawn_row_of_the_winning_chunk(self, monkeypatch, planted):
        # three chunks, the last one short; a NaN deviation planted in chunk 1
        # or in the short chunk 2 makes that chunk win
        alg = builtin("truncated_HH")
        real = inversion.sample_with_rng
        draws = []

        def recorded(alg, count, radius, rng):
            draws.append(real(alg, count, radius, rng))
            return draws[-1]

        monkeypatch.setattr(inversion, "sample_with_rng", recorded)
        self.nan_in_chunks(monkeypatch, planted)
        report = inversion.verify_inversion(alg, samples=self.SAMPLES, seed=4, threads=1)
        assert len(draws) == 8 and [d[0].shape[0] for d in draws[:6:2]] == [util._CHUNK,
                                                                            util._CHUNK, 500]
        # the deviation of every drawn pair, by the public kernels; dropped pairs lose
        deviations = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for (vp, zp), (vq, zq) in zip(draws[:6:2], draws[1:6:2]):
                gp, gq = hgroup.gauge_arrays(alg, vp, zp), hgroup.gauge_arrays(alg, vq, zq)
                d_pq = hgroup.gauge_dist_arrays(alg, vp, zp, vq, zq)
                ratio = (hgroup.gauge_dist_arrays(alg, *inversion.sigma_arrays(alg, vp, zp),
                                                  *inversion.sigma_arrays(alg, vq, zq))
                         * gp * gq / d_pq)
                keep = (gp > 0.0) & (gq > 0.0) & (d_pq > 0.0)
                deviations.append(np.where(keep, np.abs(ratio - 1.0), -np.inf))
        maxima = [np.nan if k in planted else np.max(d) for k, d in enumerate(deviations)]
        winner = int(np.argmax(maxima))
        assert winner == min(planted, default=winner)
        row = int(np.argmax(deviations[winner]))
        (pv, pz), (qv, qz) = draws[2 * winner], draws[2 * winner + 1]
        assert [a.tobytes() for a in (*report.worst_pair.p, *report.worst_pair.q)] == \
            [a[row].tobytes() for a in (pv, pz, qv, qz)]
        # the replay draws the winning chunk again
        assert all(np.array_equal(a, b) for a, b in zip((*draws[6], *draws[7]),
                                                        (pv, pz, qv, qz)))
        if not planted:
            assert report.max_relative_deviation == maxima[winner]

    def test_chunk_holds_no_row_major_draws(self):
        # with a row-major copy of each chunk's draws the peak was 16.5 MiB;
        # with the draws held to the chunk's end, 11.5 MiB; with sigma written
        # over p and q and the worst pair drawn again, 7.0 MiB
        alg = builtin("H_O")
        assert peak_mib(lambda: inversion.verify_inversion(
            alg, samples=100000, seed=1, threads=1)) <= 8.5

    def test_two_workers_hold_two_chunks(self):
        # 19.5-22.8 MiB with the draws held to each chunk's end; 13.4-14.3 MiB
        # with sigma written over p and q
        alg = builtin("H_O")
        assert peak_mib(lambda: inversion.verify_inversion(
            alg, samples=100000, seed=1, threads=2)) <= 16.0


class TestChunkAgainstWholeChunk:
    """The fused chunk gives the reports of the chunk evaluated by the public kernels."""

    @staticmethod
    def report(alg, samples, threads):
        return canonical_json(inversion.verify_inversion(alg, samples=samples, seed=8,
                                                         threads=threads).to_dict())

    @pytest.mark.parametrize("name", ["H_C:1", "H_O", "truncated_HH"])
    def test_reports_are_byte_identical(self, monkeypatch, name):
        alg = builtin(name)
        chunk = util._CHUNK
        sizes = [1, 2047, 2048, 2049, 4095, 4096, 4097, chunk - 1, chunk, chunk + 1,
                 20001, 2 * chunk]
        fused = [self.report(alg, n, t) for n in sizes for t in (1, 2, 3)]
        monkeypatch.setattr(inversion, "_inversion_chunk", inversion_chunk_whole)
        whole = [self.report(alg, n, t) for n in sizes for t in (1, 2, 3)]
        assert fused == whole


class TestPhiAt:
    def test_phi_at_identity_extends_sigma(self):
        alg = builtin("H_C:1")
        v, z = sample(alg, 100, seed=4)
        image = inversion.phi_at(alg, finite(np.zeros_like(v), np.zeros_like(z)), finite(v, z))
        sv, sz = inversion.sigma_arrays(alg, v, z)
        assert not np.any(image.inf)
        assert np.allclose(image.v, sv, atol=1e-12)
        assert np.allclose(image.z, sz, atol=1e-12)

    def test_center_swaps_with_infinity(self):
        alg = builtin("H_H:1")
        x = finite(*sample(alg, 5, seed=5))
        assert np.all(inversion.phi_at(alg, x, x).inf)
        back = inversion.phi_at(alg, x, infinite(alg, 5))
        assert not np.any(back.inf)
        assert np.array_equal(back.v, x.v) and np.array_equal(back.z, x.z)

    def test_involution_on_random_points(self):
        # batch equivalent of phi_x: x sigma(x^{-1} w), applied twice
        alg = builtin("H_H:1")
        v, z = sample(alg, 1, seed=6)
        x_v = np.broadcast_to(v[0], (10000, 4))
        x_z = np.broadcast_to(z[0], (10000, 3))
        wv, wz = sample(alg, 10000, seed=7)

        def phi(pv, pz):
            sv, sz = inversion.sigma_arrays(alg, *hgroup.group_mul(alg, -x_v, -x_z, pv, pz))
            return hgroup.group_mul(alg, x_v, x_z, sv, sz)

        bv, bz = phi(*phi(wv, wz))
        worst = max(np.max(np.abs(bv - wv)), np.max(np.abs(bz - wz)))
        assert worst <= 1e-9
        # the library map agrees with the hand composition
        x = finite(x_v, x_z)
        image = inversion.phi_at(alg, x, finite(wv, wz))
        assert np.array_equal(image.v, phi(wv, wz)[0])
        assert np.array_equal(image.z, phi(wv, wz)[1])
        back = inversion.phi_at(alg, x, image)
        assert max(np.max(np.abs(back.v - wv)), np.max(np.abs(back.z - wz))) <= 1e-9


class TestPairTransporter:
    def rand(self, alg, rng, count=200, radius=1.0):
        return finite(*hgroup.sample_with_rng(alg, count, radius, rng))

    @pytest.mark.parametrize("name", ["H_C:1", "H_H:1", "H_O"])
    def test_all_finite_branch(self, name):
        alg = builtin(name)
        rng = np.random.default_rng(8)
        x, xp, y, yp = (self.rand(alg, rng) for _ in range(4))
        assert np.max(dist(alg, inversion.pair_transporter(alg, x, xp, y, yp, x), xp)) <= 1e-9
        assert np.max(dist(alg, inversion.pair_transporter(alg, x, xp, y, yp, y), yp)) <= 1e-9

    def test_x_infinite_branch(self):
        alg = builtin("H_H:1")
        rng = np.random.default_rng(9)
        xp, y, yp = (self.rand(alg, rng) for _ in range(3))
        inf = infinite(alg, 200)
        assert np.max(dist(alg, inversion.pair_transporter(alg, inf, xp, y, yp, inf), xp)) <= 1e-9
        assert np.max(dist(alg, inversion.pair_transporter(alg, inf, xp, y, yp, y), yp)) <= 1e-9

    def test_x_prime_infinite_branch(self):
        alg = builtin("H_H:1")
        rng = np.random.default_rng(10)
        x, y, yp = (self.rand(alg, rng) for _ in range(3))
        inf = infinite(alg, 200)
        assert np.all(inversion.pair_transporter(alg, x, inf, y, yp, x).inf)
        assert np.max(dist(alg, inversion.pair_transporter(alg, x, inf, y, yp, y), yp)) <= 1e-9

    def test_both_infinite_branch(self):
        alg = builtin("H_C:1")
        rng = np.random.default_rng(11)
        y, yp = (self.rand(alg, rng) for _ in range(2))
        inf = infinite(alg, 200)
        assert np.all(inversion.pair_transporter(alg, inf, inf, y, yp, inf).inf)
        assert np.max(dist(alg, inversion.pair_transporter(alg, inf, inf, y, yp, y), yp)) <= 1e-9

    def test_equal_pair_branch(self):
        alg = builtin("H_C:1")
        rng = np.random.default_rng(12)
        x, xp = (self.rand(alg, rng) for _ in range(2))
        assert np.max(dist(alg, inversion.pair_transporter(alg, x, xp, x, xp, x), xp)) <= 1e-9
        # fixing two finite points: x = x', y = y', x != y
        y = self.rand(alg, rng)
        assert np.max(dist(alg, inversion.pair_transporter(alg, x, x, y, y, x), x)) <= 1e-9
        assert np.max(dist(alg, inversion.pair_transporter(alg, x, x, y, y, y), y)) <= 1e-9

    def test_equal_pair_with_infinity(self):
        alg = builtin("H_C:1")
        rng = np.random.default_rng(13)
        x, xp = (self.rand(alg, rng, count=1) for _ in range(2))
        inf = infinite(alg, 1)
        g_inf = inversion.pair_transporter(alg, inf, xp, inf, xp, inf)
        assert np.max(dist(alg, g_inf, xp)) <= 1e-9
        assert np.all(inversion.pair_transporter(alg, x, inf, x, inf, x).inf)
        assert np.all(inversion.pair_transporter(alg, inf, inf, inf, inf, inf).inf)

    def test_degenerate_quadruples_rejected(self):
        alg = builtin("H_C:1")
        rng = np.random.default_rng(14)
        a, b, c = (self.rand(alg, rng, count=3) for _ in range(3))
        with pytest.raises(ValueError, match="degenerate quadruple"):
            inversion.pair_transporter(alg, a, b, a, c, a)  # x = y but x' != y'
        with pytest.raises(ValueError, match="degenerate quadruple"):
            inversion.pair_transporter(alg, a, b, c, b, a)  # x' = y' but x != y

    def test_blocks_of_w_share_the_quadruple(self):
        alg = builtin("H_O")
        rng = np.random.default_rng(16)
        x, xp, y, yp, w = (self.rand(alg, rng, count=30) for _ in range(5))
        stacked = inversion.pair_transporter(alg, x, xp, y, yp, inversion._concat(w, x, y))
        for k, block in enumerate((w, x, y)):
            alone = inversion.pair_transporter(alg, x, xp, y, yp, block)
            for got, expected in zip(stacked, alone):
                assert np.array_equal(got[30 * k:30 * (k + 1)], expected)
        with pytest.raises(ValueError, match="whole number of blocks"):
            inversion.pair_transporter(alg, x, xp, y, yp, self.rand(alg, rng, count=31))

    def test_numeric_path_is_continuous_at_the_anchor(self):
        # a slightly perturbed anchor goes through the numeric factorization
        # and must land near the image (gauge is Holder-1/2 across the center,
        # so the tolerance is much coarser than the anchor's exact hit)
        alg = builtin("H_H:1")
        rng = np.random.default_rng(15)
        x, xp, y, yp = (self.rand(alg, rng, count=50) for _ in range(4))
        nudged = finite(y.v + 1e-12, y.z)
        assert np.max(dist(alg, inversion.pair_transporter(alg, x, xp, y, yp, nudged), yp)) <= 1e-3


class TestTransportErrors:
    def test_nan_deviation_fails_the_sweep(self, monkeypatch):
        real = inversion._gauge_cross_ratios

        def one_nan(alg, points):
            ratios = real(alg, points)
            ratios[3] = np.nan
            return ratios

        monkeypatch.setattr(inversion, "_gauge_cross_ratios", one_nan)
        report = inversion.transport_errors(builtin("H_C:1"), 10, seed=1)
        assert report.max_gauge_error == 0.0
        assert all(np.isnan(d) for d in report.cross_ratio_per_branch.values())
        assert np.isnan(report.max_cross_ratio_deviation) and not report.passed

    @pytest.mark.parametrize("radius", [1e-150, 1e-30, 1e-3, 100.0, 1e30, 1e150])
    def test_verdict_is_free_of_the_scale(self, radius):
        # composed at unit scale; otherwise 1.7e-2 at radius 1e-3 and 1.8e-5 at 10 on H_C:1.
        # The cross-ratios are taken at the sample's own scale: the kernels evaluate any scale.
        good = inversion.transport_errors(builtin("H_C:1"), 300, radius=radius, seed=2)
        bad = inversion.transport_errors(builtin("truncated_HH"), 300, radius=radius, seed=2)
        assert good.passed and good.max_gauge_error == 0.0
        assert good.max_cross_ratio_deviation <= 1e-11
        assert not bad.passed and bad.max_cross_ratio_deviation > 1.0

    def test_trials_precondition(self):
        with pytest.raises(ValueError, match="trials"):
            inversion.transport_errors(builtin("H_C:1"), 0)


class TestQuasiconformalityOfSigma:
    def test_ratio_decreases_toward_one(self):
        alg = builtin("H_C:1")
        v, z = sample(alg, 1, seed=16)
        v, z = hgroup.dilate_arrays(1.0 / hgroup.gauge_arrays(alg, v, z)[0], v, z)
        center = hgroup.Point(v[0], z[0])
        report = distortion.estimate_qc_ratio(alg, partial(inversion.sigma_arrays, alg), center,
                                              [1e-1, 1e-2, 1e-3], samples=30000, seed=17)
        ratios = [entry["ratio"] for entry in report.statistics["per_radius"]]
        assert all(r is not None for r in ratios)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] <= 1.01
