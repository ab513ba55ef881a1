"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they complete."""

import time
from functools import partial

import numpy as np
import pytest

from heislab import algebra as al
from heislab import distortion as dt
from heislab import finite_metric as fm
from heislab import hgroup, hlie, inversion
from heislab.algebra import AlgebraKind
from heislab.cli import run
from oracles import j_map

HEISENBERG_NAMES = ["H_R:5", "H_C:1", "H_C:3", "H_H:1", "H_H:2", "H_O"]


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def builtin(name):
    return hlie.algebra_from_name(name)


def test_criterion_01_division_algebra_soundness():
    started = time.perf_counter()
    # the same check as `heislab algebra check`
    octonion, quaternion = al.check_arithmetic([AlgebraKind.OCTONION, AlgebraKind.QUATERNION],
                                               100000, seed=101).results
    composition = octonion["composition_residual"]
    associativity = quaternion["associativity_residual"]
    elapsed = time.perf_counter() - started
    ok = composition <= 1e-12 and associativity <= 1e-14 and elapsed < 5.0
    report(1, ok, f"octonion composition residual {composition:.2e} <= 1e-12 over 1e5 "
                  f"pairs, quaternion associativity {associativity:.2e} <= 1e-14, "
                  f"runtime {elapsed:.2f}s < 5s")


def test_criterion_02_h_type_certification():
    residuals = {}
    for name in HEISENBERG_NAMES + ["truncated_HH"]:
        rep = hlie.check_h_type(builtin(name), samples=10000, tol=1e-12, seed=102)
        residuals[name] = rep.max_residual
        assert rep.is_h_type, name
    control = hlie.check_h_type(hlie.make_degenerate_direct_sum(), samples=10000, seed=102)
    worst = max(residuals.values())
    ok = worst <= 1e-12 and not control.is_h_type and control.max_residual >= 0.5
    report(2, ok, f"H-type residual <= 1e-12 on all seven algebras (worst {worst:.2e}); "
                  f"degenerate control fails with residual {control.max_residual:.2f} >= 0.5")


def test_criterion_03_j2_dichotomy():
    worst = 0.0
    for name in HEISENBERG_NAMES:
        rep = hlie.check_j2(builtin(name), samples=10000, tol=1e-12, seed=103)
        assert rep.satisfies_j2, name
        worst = max(worst, rep.max_residual)
    control = hlie.check_j2(builtin("truncated_HH"), samples=10000, seed=103)
    x, z, zp = control.witness
    alg = builtin("truncated_HH")
    target = j_map(alg, z) @ (j_map(alg, zp) @ x)
    generators = np.stack([j_map(alg, w) @ x for w in np.eye(alg.dim_z)])
    rank_grew = (np.linalg.matrix_rank(np.vstack([generators, target]), tol=1e-9)
                 == np.linalg.matrix_rank(generators, tol=1e-9) + 1)
    ok = (worst <= 1e-12 and not control.satisfies_j2
          and control.max_residual >= 0.9 and rank_grew)
    report(3, ok, f"J^2 residual <= 1e-12 on all six division-algebra instances "
                  f"(worst {worst:.2e}); truncated_HH fails with residual "
                  f"{control.max_residual:.3f} >= 0.9 and a rank-augmenting witness")


def test_criterion_04_inversion_identity_forward():
    started = time.perf_counter()
    worst = 0.0
    for name in HEISENBERG_NAMES:
        rep = inversion.verify_inversion(builtin(name), samples=100000, seed=104, tol=1e-9)
        assert rep.is_exact_inversion, name
        worst = max(worst, rep.max_relative_deviation)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 30.0
    report(4, ok, f"max |r - 1| = {worst:.2e} <= 1e-9 over 1e5 pairs on each "
                  f"division-algebra group, runtime {elapsed:.1f}s < 30s")


def test_criterion_05_inversion_identity_converse_proxy():
    rep = inversion.verify_inversion(builtin("truncated_HH"), samples=100000, seed=105)
    ok = rep.max_relative_deviation >= 1e-3 and not rep.is_exact_inversion
    report(5, ok, f"truncated_HH violates the identity: found |r - 1| = "
                  f"{rep.max_relative_deviation:.3f} >= 1e-3 within 1e5 samples")


def test_criterion_06_gauge_metric_axioms():
    worst_triangle = -np.inf
    worst_invariance = 0.0
    worst_scaling = 0.0
    for name in HEISENBERG_NAMES:
        alg = builtin(name)
        v1, z1 = hgroup.sample_arrays(alg, 10**6, 1.0, seed=106)
        v2, z2 = hgroup.sample_arrays(alg, 10**6, 1.0, seed=107)
        v3, z3 = hgroup.sample_arrays(alg, 10**6, 1.0, seed=108)
        d12 = hgroup.gauge_dist_arrays(alg, v1, z1, v2, z2)
        d23 = hgroup.gauge_dist_arrays(alg, v2, z2, v3, z3)
        d13 = hgroup.gauge_dist_arrays(alg, v1, z1, v3, z3)
        worst_triangle = max(worst_triangle, float(np.max(d13 - d12 - d23)))

        sel = slice(0, 100000)
        tv1, tz1 = hgroup.group_mul(alg, v3[sel], z3[sel], v1[sel], z1[sel])
        tv2, tz2 = hgroup.group_mul(alg, v3[sel], z3[sel], v2[sel], z2[sel])
        moved = hgroup.gauge_dist_arrays(alg, tv1, tz1, tv2, tz2)
        worst_invariance = max(worst_invariance,
                               float(np.max(np.abs(moved - d12[sel]))))
        s = np.sqrt(2.0)
        scaled = hgroup.gauge_dist_arrays(alg, *hgroup.dilate_arrays(s, v1[sel], z1[sel]),
                                          *hgroup.dilate_arrays(s, v2[sel], z2[sel]))
        worst_scaling = max(worst_scaling,
                            float(np.max(np.abs(scaled - s * d12[sel]))))
    ok = worst_triangle <= 1e-12 and worst_invariance <= 1e-10 and worst_scaling <= 1e-10
    report(6, ok, f"triangle slack {worst_triangle:.2e} <= 1e-12 over 1e6 triples per "
                  f"group; left-invariance {worst_invariance:.2e} and dilation "
                  f"homogeneity {worst_scaling:.2e} <= 1e-10")


def _sandwich_holds(quasimetric, chained):
    off = ~np.eye(quasimetric.shape[0], dtype=bool)
    lower = np.all(chained[off] >= 0.25 * quasimetric[off] - 1e-15)
    upper = np.all(chained[off] <= quasimetric[off] + 1e-15)
    return bool(lower and upper)


def test_criterion_07_sandwich_bounds():
    alg = builtin("H_C:1")
    v, z = hgroup.sample_arrays(alg, 200, 1.0, seed=109)
    group_sample = fm.from_group_arrays(alg, v, z)
    rng = np.random.default_rng(110)
    pts = rng.uniform(-1.0, 1.0, size=(200, 3))
    euclid = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    euclid = np.triu(euclid, 1)
    euclidean_sample = fm.FiniteMetricSpace([str(i) for i in range(200)],
                                            euclid + euclid.T)
    ok = True
    for space in (group_sample, euclidean_sample):
        inv_q = fm.inversion_quasimetric(space.dist, 0)
        ok = ok and _sandwich_holds(inv_q, fm.chain_metric(inv_q))
        sph_q = fm.sphericalization_quasimetric(space.dist, 0)
        ok = ok and _sandwich_holds(sph_q, fm.chain_metric(sph_q))
    report(7, ok, "1/4 * quasimetric <= chain metric <= quasimetric entrywise on "
                  "200-point gauge and Euclidean samples, inversion and "
                  "sphericalization both")


def test_criterion_08_sixteen_t_quasimobius_bound():
    alg = builtin("H_C:1")
    v, z = hgroup.sample_arrays(alg, 300, 1.0, seed=111)
    space = fm.from_group_arrays(alg, v, z)
    spherical = fm.sphericalize_space(space, 0)
    rep_sphere = dt.estimate_quasimobius(space.dist, spherical.dist[:300, :300],
                                         samples=10**6, seed=112)
    inverted = fm.invert_space(space, 0)
    rep_invert = dt.estimate_quasimobius(space.dist[1:, 1:],
                                         inverted.dist[:299, :299],
                                         samples=10**6, seed=113)
    c_sphere = rep_sphere.statistics["strong_constant"]
    c_invert = rep_invert.statistics["strong_constant"]
    ok = 1.0 <= c_sphere <= 16.0 and 1.0 <= c_invert <= 16.0
    report(8, ok, f"strong quasimobius constants over 2e6 sampled quadruples: "
                  f"sphericalization C = {c_sphere:.6f}, inversion C = {c_invert:.6f}, "
                  f"both in [1, 16]")


def test_criterion_09_cross_ratio_invariance_under_inversion():
    alg = builtin("H_C:1")
    v, z = hgroup.sample_arrays(alg, 100, 1.0, seed=114)
    space = fm.from_group_arrays(alg, v, z)
    t = fm.inversion_quasimetric(space.dist, 0)[:99, :99]  # finite points, base removed
    d = space.dist[1:, 1:]
    m = 99
    grid_y, grid_z, grid_w = np.meshgrid(np.arange(m), np.arange(m), np.arange(m),
                                         indexing="ij")
    worst = 0.0
    for x in range(m):
        distinct = ((grid_y != x) & (grid_z != x) & (grid_w != x)
                    & (grid_y != grid_z) & (grid_y != grid_w) & (grid_z != grid_w))
        num = t[x, grid_y] * t[grid_z, grid_w] * d[x, grid_z] * d[grid_y, grid_w]
        den = t[x, grid_z] * t[grid_y, grid_w] * d[x, grid_y] * d[grid_z, grid_w]
        ratio = np.where(distinct, num / np.where(distinct, den, 1.0), 1.0)
        worst = max(worst, float(np.max(np.abs(ratio - 1.0))))
    ok = worst <= 1e-12
    report(9, ok, f"cross-ratios under the inversion quasimetric match the original "
                  f"metric on all ~9.2e7 ordered quadruples of a 100-point sample, "
                  f"worst deviation {worst:.2e} <= 1e-12")


def test_criterion_10_regularity_exponents():
    # growth exponent = dim_v + 2 dim_z (3, 4, 10, 22); ball measures scale
    # exactly like r^Q under dilation, which pins the fitted slope
    radii = np.logspace(-1.0, 1.0, 7)  # three per decade, two decades
    targets = {"H_R:3": 3.0, "H_C:1": 4.0, "H_H:1": 10.0, "H_O": 22.0}
    fitted = {}
    ok = True
    for name, target in targets.items():
        alg = builtin(name)
        assert alg.homogeneous_dimension == target
        rep = dt.estimate_regularity(alg, radii, samples=10**6, seed=115)
        fitted[name] = rep.statistics["fitted_exponent"]
        ok = ok and abs(fitted[name] - target) <= 0.05
    detail = ", ".join(f"{name}: {value:.4f} (target {targets[name]:g})"
                       for name, value in fitted.items())
    report(10, ok, f"fitted growth exponents within 0.05 at 1e6 points per radius: "
                   f"{detail}")


def test_criterion_11_transporter_totality():
    # the same sweep as `heislab invert transport`: targets hit, and cross-ratios of
    # free points kept, on a J^2 group; both controls move the cross-ratios
    sweep = inversion.transport_errors(builtin("H_H:1"), 1000, radius=1.0, seed=116)
    assert set(sweep.per_branch) == {"finite", "x_infinite", "x_prime_infinite", "x_equals_y"}
    assert set(sweep.cross_ratio_per_branch) == set(sweep.per_branch)
    peak = sweep.max_gauge_error
    deviation = sweep.max_cross_ratio_deviation
    controls = {name: inversion.transport_errors(builtin(name), 1000, radius=1.0, seed=116)
                for name in ("truncated_HH", "degenerate_sum")}
    ok = (peak <= 1e-9 and deviation <= 1e-9 and sweep.passed
          and all(not c.passed and c.max_cross_ratio_deviation > 1e-3
                  for c in controls.values()))
    detail = ", ".join(f"{name} {c.max_cross_ratio_deviation:.2f}"
                       for name, c in controls.items())
    report(11, ok, f"transporter hits its targets on 1e3 random quadruples in each of "
                   f"the four case branches, max gauge error {peak:.2e} <= 1e-9, and keeps "
                   f"free-point cross-ratios within {deviation:.2e} <= 1e-9; the controls "
                   f"fail with deviations {detail}")


def test_criterion_12_cli_reproducibility(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    argv = ["invert", "verify", "--algebra", "H_H:1", "--samples", "30000",
            "--seed", "117", "--no-timestamp"]
    assert run(argv + ["--threads", "1", "--output", str(a)]) == 0
    assert run(argv + ["--threads", "1", "--output", str(b)]) == 0
    assert run(argv + ["--threads", "4", "--output", str(c)]) == 0
    same_runs = a.read_bytes() == b.read_bytes()
    same_threads = a.read_bytes() == c.read_bytes()
    d1, d2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    argv = ["group", "distmat", "--algebra", "H_O", "--count", "50", "--seed", "118"]
    assert run(argv + ["--output", str(d1)]) == 0
    assert run(argv + ["--output", str(d2)]) == 0
    same_files = d1.read_bytes() == d2.read_bytes()
    ok = same_runs and same_threads and same_files
    report(12, ok, "CLI reports and matrices are byte-identical across repeated runs "
                   "and across --threads 1 vs 4")


def test_criterion_13_inversion_is_one_quasiconformal_exactly_on_j2():
    # the metric quasiconformality ratio of sigma at three random centers of
    # gauge 1 tends to 1 on J^2 and stays large on truncated_HH, which is
    # H-type without J^2
    started = time.perf_counter()
    radii = [0.1, 0.01, 0.001]

    def ratios(name, seed):
        alg = builtin(name)
        rep = dt.estimate_qc_ratio(alg, partial(inversion.sigma_arrays, alg),
                                   dt.random_center(alg, 1.0, seed), radii, samples=20000,
                                   seed=seed)
        return [entry["ratio"] for entry in rep.statistics["per_radius"]]

    seeds = (1, 2, 3)
    j2 = [ratios(name, seed)[-1] for name in HEISENBERG_NAMES for seed in seeds]
    control = [r for seed in seeds for r in ratios("truncated_HH", seed)]
    elapsed = time.perf_counter() - started
    ok = (all(abs(r - 1.0) <= 0.01 for r in j2) and all(r >= 2.0 for r in control)
          and elapsed < 3.0)
    report(13, ok, f"qc ratio of the inversion at radius 1e-3 within 0.01 of 1 on the six "
                   f"division-algebra groups ({min(j2):.4f}-{max(j2):.4f}) at seeds 1-3; "
                   f"truncated_HH reads {min(control):.2f}-{max(control):.2f} >= 2 at "
                   f"radii 0.1, 0.01, 0.001; runtime {elapsed:.2f}s < 3s")
