"""Command-line interface: exit codes, report schemas, file pipelines,
and byte-level reproducibility."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from heislab import finite_metric as fm
from heislab import hgroup, hlie
from heislab.cli import run
from oracles import write_algebra_spec


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestExitCodes:
    def test_passing_check_returns_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["lie", "check-j2", "--algebra", "H_H:1", "--samples", "2000",
                    "--seed", "7", "--output", str(out), "--no-timestamp"])
        assert code == 0
        assert read_json(out)["satisfies_j2"] is True

    def test_negative_result_without_expectation_is_still_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["invert", "verify", "--algebra", "truncated_HH",
                    "--samples", "20000", "--seed", "7",
                    "--output", str(out), "--no-timestamp"])
        assert code == 0
        assert read_json(out)["is_exact_inversion"] is False

    def test_violated_expectation_returns_two(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["lie", "check-j2", "--algebra", "truncated_HH",
                    "--expect", "j2", "--output", str(out), "--no-timestamp"])
        assert code == 2

    def test_met_expectation_returns_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["lie", "check-j2", "--algebra", "truncated_HH",
                    "--expect", "not-j2", "--output", str(out), "--no-timestamp"])
        assert code == 0

    def test_usage_error_returns_one(self):
        assert run(["group", "sample", "--algebra", "H_C:1", "--count", "0"]) == 1

    def test_unknown_algebra_returns_one(self):
        assert run(["lie", "check-j2", "--algebra", "H_X:2"]) == 1

    def test_missing_file_returns_one(self, tmp_path):
        assert run(["metric", "invert", "--input", str(tmp_path / "nope.csv")]) == 1

    def test_unknown_command_returns_one(self):
        assert run(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["invert", "verify", "--algebra", "H_C:1", "--samples", "10", "--radius", "1e160"],
         "radius 1e+160 is too large: above 1e+150 the central coordinates, of size r^2, "
         "near the float overflow"),
        (["invert", "verify", "--algebra", "H_C:1", "--samples", "10", "--radius", "nan"],
         "radius must be positive and finite, got nan"),
        (["invert", "verify", "--algebra", "H_C:1", "--samples", "10", "--radius", "inf"],
         "radius must be positive and finite, got inf"),
        (["group", "sample", "--algebra", "H_C:1", "--count", "3", "--radius", "nan"],
         "radius must be positive and finite, got nan"),
        (["group", "sample", "--algebra", "H_C:1", "--count", "3", "--radius", "inf"],
         "radius must be positive and finite, got inf"),
        (["group", "distmat", "--algebra", "H_C:1", "--count", "3", "--radius", "nan"],
         "radius must be positive and finite, got nan"),
        (["group", "distmat", "--algebra", "H_C:1", "--count", "3", "--radius", "inf"],
         "radius must be positive and finite, got inf"),
        (["invert", "transport", "--algebra", "H_C:1", "--trials", "10", "--radius", "1e-200"],
         "radius 1e-200 is too small: below 1e-150 the central coordinates, of size r^2, "
         "near the float underflow"),
        (["group", "sample", "--algebra", "H_C:1", "--count", "3", "--radius", "1e-200"],
         "radius 1e-200 is too small: below 1e-150 the central coordinates, of size r^2, "
         "near the float underflow"),
        (["distort", "qc", "--algebra", "H_C:1", "--samples", "100", "--radii", "1e300"],
         "radius 1e+300 is too large: above 1e+150 the central coordinates, of size r^2, "
         "near the float overflow"),
        (["distort", "qc", "--algebra", "H_C:1", "--samples", "100", "--radii", "0.1,1e-200"],
         "radius 1e-200 is too small: below 1e-150 the central coordinates, of size r^2, "
         "near the float underflow"),
        (["distort", "qc", "--algebra", "H_C:1", "--samples", "100", "--center-gauge", "1e200"],
         "center gauge 1e+200 is too large: above 1e+150 the central coordinates, of size r^2, "
         "near the float overflow"),
        (["distort", "qc", "--algebra", "H_C:1", "--samples", "100", "--center-gauge", "1e-200"],
         "center gauge 1e-200 is too small: below 1e-150 the central coordinates, of size r^2, "
         "near the float underflow"),
        (["group", "sample", "--algebra", "H_C:1", "--count", "3", "--radius", "-1"],
         "radius must be positive and finite, got -1.0"),
        (["group", "distmat", "--algebra", "H_C:1", "--count", "3", "--radius", "0"],
         "radius must be positive and finite, got 0.0"),
        (["distort", "qc", "--algebra", "H_C:1", "--samples", "100", "--radii", "0.1,-1"],
         "radius must be positive and finite, got -1.0"),
        (["invert", "verify", "--algebra", "H_O", "--samples", "20000", "--radius", "4e153"],
         "radius 4e+153 is too large: above 1e+150 the central coordinates, of size r^2, "
         "near the float overflow"),
        (["distort", "qc", "--algebra", "H_C:1", "--samples", "100", "--radii", "1e-8"],
         "radius 1e-08 is below the resolution 9.53674e-07 of the center: radii must be at "
         "least 2^-20 times its gauge"),
        (["distort", "qc", "--algebra", "H_C:1", "--samples", "100", "--center-gauge", "1e100"],
         "radius 0.001 is below the resolution 9.53674e+93 of the center: radii must be at "
         "least 2^-20 times its gauge"),
        (["distort", "regularity", "--algebra", "H_C:1", "--samples", "2000",
          "--radii", "1e-170,1e-160"],
         "radius 1e-170 is too small: below 1e-150 the central coordinates, of size r^2, "
         "near the float underflow"),
        (["distort", "regularity", "--algebra", "H_C:1", "--samples", "2000",
          "--radii", "1e160,1e170"],
         "radius 1e+160 is too large: above 1e+150 the central coordinates, of size r^2, "
         "near the float overflow"),
        (["distort", "regularity", "--algebra", "H_C:1", "--samples", "2000",
          "--radii", "1e100,1e101"],
         "radius 1e+100 is out of range: the volume of its sampling envelope, about r^4, "
         "leaves the float range"),
        (["distort", "regularity", "--algebra", "H_O", "--samples", "2000",
          "--radii", "1e14,1e15"],
         "radius 100000000000000.0 is out of range: the volume of its sampling envelope, "
         "about r^22, leaves the float range"),
        (["distort", "regularity", "--algebra", "H_O", "--samples", "2000",
          "--radii", "1e100,1e101"],
         "radius 1e+100 is out of range: the volume of its sampling envelope, about r^22, "
         "leaves the float range"),
    ], ids=["verify-1e160", "verify-nan", "verify-inf", "sample-nan", "sample-inf",
            "distmat-nan", "distmat-inf", "transport-1e-200", "sample-1e-200",
            "qc-1e300", "qc-1e-200", "qc-center-1e200", "qc-center-1e-200", "sample-negative",
            "distmat-zero", "qc-negative", "verify-4e153", "qc-below-center-resolution",
            "qc-center-1e100-default-radii", "regularity-1e-170", "regularity-1e160",
            "regularity-1e100", "regularity-H_O-1e14", "regularity-H_O-1e100"])
    def test_unusable_radius_is_one_error_line(self, argv, message, capsys):
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("radius", ["1e-77", "1e77"])
    def test_dilation_probes_print_no_warning(self, radius, capsys):
        argv = ["invert", "verify", "--algebra", "H_C:2", "--samples", "2000",
                "--radius", radius, "--seed", "5", "--expect", "exact", "--no-timestamp"]
        assert run(argv) == 0
        expected = capsys.readouterr().out
        report = json.loads(expected)
        assert report["is_exact_inversion"] is True and report["pairs_used"] == 2000
        assert report["max_relative_deviation"] <= 1e-12
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "heislab.cli",
                               *argv], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == expected

    def test_expect_htype_on_control_returns_two(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["lie", "check-htype", "--algebra", "degenerate_sum",
                    "--expect", "htype", "--output", str(out), "--no-timestamp"])
        assert code == 2
        assert read_json(out)["is_h_type"] is False


class TestAlgebraCheck:
    def test_all_kinds_pass(self, tmp_path):
        out = tmp_path / "alg.json"
        code = run(["algebra", "check", "--samples", "20000", "--seed", "1",
                    "--output", str(out), "--no-timestamp"])
        assert code == 0
        payload = read_json(out)
        assert {entry["kind"] for entry in payload["results"]} == {
            "real", "complex", "quaternion", "octonion"}
        assert all(entry["passed"] for entry in payload["results"])

    def test_single_kind(self, tmp_path):
        out = tmp_path / "alg.json"
        code = run(["algebra", "check", "--kind", "octonion", "--samples", "5000",
                    "--seed", "1", "--output", str(out), "--no-timestamp"])
        assert code == 0
        (entry,) = read_json(out)["results"]
        assert entry["kind"] == "octonion"
        assert "alternativity_residual" in entry


class TestGroupCommands:
    def test_sample_round_trips(self, tmp_path):
        out = tmp_path / "points.csv"
        code = run(["group", "sample", "--algebra", "H_C:2", "--count", "50",
                    "--radius", "1.5", "--seed", "3", "--output", str(out)])
        assert code == 0
        alg = hlie.algebra_from_name("H_C:2")
        data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        v, z = data[:, :alg.dim_v], data[:, alg.dim_v:]
        ov, oz = hgroup.sample_arrays(alg, 50, 1.5, seed=3)
        assert v.tobytes() == ov.tobytes()
        assert z.tobytes() == oz.tobytes()

    def test_distmat_csv(self, tmp_path):
        out = tmp_path / "dist.csv"
        code = run(["group", "distmat", "--algebra", "H_H:1", "--count", "30",
                    "--seed", "4", "--output", str(out)])
        assert code == 0
        space = fm.load_space_csv(out)
        assert space.n == 30

    def test_distmat_json(self, tmp_path):
        out = tmp_path / "dist.json"
        code = run(["group", "distmat", "--algebra", "H_C:1", "--count", "10",
                    "--seed", "4", "--format", "json", "--output", str(out)])
        assert code == 0
        assert fm.load_space_json(out).n == 10

    def test_distmat_count_precondition(self):
        assert run(["group", "distmat", "--algebra", "H_C:1", "--count", "1"]) == 1


class TestMetricCommands:
    @pytest.fixture()
    def matrix_file(self, tmp_path):
        path = tmp_path / "dist.csv"
        assert run(["group", "distmat", "--algebra", "H_C:1", "--count", "40",
                    "--seed", "5", "--output", str(path)]) == 0
        return path

    def test_invert_emits_chain_metric(self, matrix_file, tmp_path):
        out = tmp_path / "inv.csv"
        assert run(["metric", "invert", "--input", str(matrix_file),
                    "--base", "0", "--output", str(out)]) == 0
        space = fm.load_space_csv(out)
        assert space.contains_infinity
        assert space.n == 40  # 39 finite points plus infinity
        fm.validate_distance_matrix(space.dist)

    def test_invert_quasimetric_flag(self, matrix_file, tmp_path):
        out = tmp_path / "quasi.csv"
        assert run(["metric", "invert", "--input", str(matrix_file), "--base", "0",
                    "--quasimetric", "--output", str(out)]) == 0
        raw = fm.invert_space(fm.load_space_csv(matrix_file), 0, chain=False)
        expected = tmp_path / "expected.csv"
        fm.save_space_csv(raw, expected)
        assert raw.labels[-1] == fm.INFINITY_LABEL
        assert out.read_bytes() == expected.read_bytes()

    def test_sphericalize(self, matrix_file, tmp_path):
        out = tmp_path / "sph.json"
        assert run(["metric", "sphericalize", "--input", str(matrix_file),
                    "--format", "json", "--output", str(out)]) == 0
        space = fm.load_space_json(out)
        assert space.n == 41
        assert np.max(space.dist) <= 1.0 + 1e-12
        # the point-at-infinity flag is derived from the labels and still written
        inv = tmp_path / "inv.json"
        dist = tmp_path / "dist.json"
        assert run(["metric", "invert", "--input", str(matrix_file),
                    "--format", "json", "--output", str(inv)]) == 0
        assert run(["group", "distmat", "--algebra", "H_C:1", "--count", "5",
                    "--format", "json", "--output", str(dist)]) == 0
        for path, flag in ((out, "true"), (inv, "true"), (dist, "false")):
            assert path.read_text(encoding="utf-8").endswith(
                f'"contains_infinity": {flag}\n}}\n')

    def test_unknown_base_label(self, matrix_file):
        assert run(["metric", "invert", "--input", str(matrix_file),
                    "--base", "missing"]) == 1

    def test_base_falls_back_to_point_index(self, matrix_file, tmp_path, capsys):
        path = tmp_path / "letters.csv"
        space = fm.FiniteMetricSpace(list("abcde"), fm.load_space_csv(matrix_file).dist[:5, :5])
        fm.save_space_csv(space, path)
        expected = tmp_path / "expected.csv"
        fm.save_space_csv(fm.invert_space(space, 2), expected)
        for base in ("c", "2"):  # a label, else a point index
            out = tmp_path / f"inv_{base}.csv"
            assert run(["metric", "invert", "--input", str(path), "--base", base,
                        "--output", str(out)]) == 0
            assert out.read_bytes() == expected.read_bytes()
        assert fm.load_space_csv(expected).labels == ["a", "b", "d", "e", fm.INFINITY_LABEL]
        capsys.readouterr()
        for base in ("99", "\u00b3"):  # out of range; a digit that int() rejects
            assert run(["metric", "invert", "--input", str(path), "--base", base]) == 1
            assert capsys.readouterr().err == f"error: unknown point label '{base}'\n"

    def test_invalid_matrix_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.0,1.0\n2.0,0.0\n")
        assert run(["metric", "invert", "--input", str(path)]) == 1

    def test_invert_at_infinity_of_a_compactified_file(self, matrix_file, tmp_path):
        sph = tmp_path / "sph.csv"
        out = tmp_path / "inv.csv"
        assert run(["metric", "sphericalize", "--input", str(matrix_file),
                    "--output", str(sph)]) == 0
        assert run(["metric", "invert", "--input", str(sph), "--base", fm.INFINITY_LABEL,
                    "--output", str(out)]) == 0
        assert fm.load_space_csv(out).n == 41
        assert run(["metric", "sphericalize", "--input", str(sph)]) == 1

    @pytest.mark.parametrize("command", ["sphericalize", "invert"])
    @pytest.mark.parametrize("flags", [[], ["--quasimetric"]])
    def test_second_infinity_is_refused(self, matrix_file, tmp_path, capsys, command, flags):
        sph = tmp_path / "sph.csv"
        assert run(["metric", "sphericalize", "--input", str(matrix_file),
                    "--output", str(sph)]) == 0
        capsys.readouterr()
        assert run(["metric", command, "--input", str(sph), "--base", "3", *flags]) == 1
        assert capsys.readouterr().err == "error: space already contains a point at infinity\n"

    def test_closure_cap_counts_input_points(self, tmp_path, capsys):
        out = tmp_path / "sph.csv"
        for count, code in ((10, 0), (11, 1)):
            path = tmp_path / f"dist{count}.csv"
            assert run(["group", "distmat", "--algebra", "H_C:1", "--count", str(count),
                        "--seed", "5", "--output", str(path)]) == 0
            assert run(["metric", "sphericalize", "--input", str(path),
                        "--max-points", "10", "--output", str(out)]) == code
        assert "11 points exceed the closure cap of 10" in capsys.readouterr().err
        assert fm.load_space_csv(out).n == 11  # written by the 10-point run

    def test_sphericalize_matches_direct_closure(self, matrix_file, tmp_path):
        from scipy.sparse.csgraph import floyd_warshall
        out = tmp_path / "sph.csv"
        assert run(["metric", "sphericalize", "--input", str(matrix_file),
                    "--output", str(out)]) == 0
        space = fm.load_space_csv(matrix_file)
        closed = floyd_warshall(fm.sphericalization_quasimetric(space.dist, 0), directed=False)
        expected = tmp_path / "expected.csv"
        fm.save_space_csv(fm.FiniteMetricSpace(space.labels + [fm.INFINITY_LABEL], closed,
                                               validate=False),
                          expected)
        assert out.read_bytes() == expected.read_bytes()


def test_cli_import_does_not_load_scipy(tmp_path):
    # scipy is a test-only oracle: not even the commands that close a metric load it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    dist, out = tmp_path / "dist.csv", tmp_path / "out.csv"
    code = ("import sys; from heislab.cli import run; "
            f"codes = [run(['group', 'distmat', '--algebra', 'H_C:1', '--count', '200', "
            f"'--seed', '5', '--output', {str(dist)!r}])] + "
            f"[run(['metric', c, '--input', {str(dist)!r}, '--output', {str(out)!r}]) "
            "for c in ('sphericalize', 'invert')]; "
            "print(codes, any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[0, 0, 0] False"
    assert fm.load_space_csv(out).n == 200


class TestDistortCommands:
    def test_qm_pipeline(self, tmp_path):
        base = tmp_path / "dist.csv"
        sph = tmp_path / "sph.csv"
        out = tmp_path / "qm.json"
        pairs = tmp_path / "pairs.csv"
        assert run(["group", "distmat", "--algebra", "H_C:1", "--count", "60",
                    "--seed", "6", "--output", str(base)]) == 0
        assert run(["metric", "sphericalize", "--input", str(base),
                    "--output", str(sph)]) == 0
        assert run(["distort", "qm", "--domain", str(base), "--image", str(sph),
                    "--samples", "20000", "--seed", "7", "--raw-pairs", str(pairs),
                    "--output", str(out), "--no-timestamp"]) == 0
        payload = read_json(out)
        c = payload["statistics"]["strong_constant"]
        assert 1.0 <= c <= 16.0
        assert payload["points_used"] == 60
        assert pairs.read_text().splitlines()[0] == "t_in,t_out"

    def test_qm_requires_shared_labels(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        space = fm.FiniteMetricSpace(["x", "y"], [[0.0, 1.0], [1.0, 0.0]])
        fm.save_space_csv(space, a)
        other = fm.FiniteMetricSpace(["u", "w"], [[0.0, 1.0], [1.0, 0.0]])
        fm.save_space_csv(other, b)
        assert run(["distort", "qm", "--domain", str(a), "--image", str(b)]) == 1

    def test_qc_report(self, tmp_path):
        out = tmp_path / "qc.json"
        assert run(["distort", "qc", "--algebra", "H_C:1", "--map", "inversion",
                    "--radii", "0.1,0.01", "--samples", "5000", "--seed", "8",
                    "--output", str(out), "--no-timestamp"]) == 0
        payload = read_json(out)
        ratios = [entry["ratio"] for entry in payload["statistics"]["per_radius"]]
        assert ratios[0] > ratios[1] >= 1.0 - 5e-3

    def test_qc_rejects_unknown_map(self):
        assert run(["distort", "qc", "--algebra", "H_C:1", "--map", "twist"]) == 1

    def test_qc_rejects_unparseable_dilation(self, capsys):
        assert run(["distort", "qc", "--algebra", "H_C:1", "--map", "dilate:abc"]) == 1
        assert capsys.readouterr().err == (
            "error: --map dilate:T needs a number T, got 'dilate:abc'\n")

    @pytest.mark.parametrize("factor", ["nan", "inf"])
    def test_qc_rejects_non_finite_dilation(self, factor, capsys):
        assert run(["distort", "qc", "--algebra", "H_C:1", "--map", f"dilate:{factor}",
                    "--samples", "100"]) == 1
        assert capsys.readouterr().err == (
            f"error: dilation factor must be positive and finite, got {factor}\n")

    @pytest.mark.parametrize("center, radii", [("1", "1e100"), ("1e100", "1e99,1e98")])
    def test_qc_far_from_unit_scale_raises_no_warning(self, center, radii, tmp_path):
        out = tmp_path / "qc.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["distort", "qc", "--algebra", "H_C:1", "--samples", "2000",
                        "--seed", "1", "--center-gauge", center, "--radii", radii,
                        "--output", str(out), "--no-timestamp"]) == 0
        per_radius = read_json(out)["statistics"]["per_radius"]
        assert [entry["radius"] for entry in per_radius] == [float(r) for r in radii.split(",")]
        assert all(entry["inner_points"] and entry["outer_points"] for entry in per_radius)

    def test_qc_below_the_gauge_limit_raises_no_warning(self, tmp_path):
        out = tmp_path / "qc.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["distort", "qc", "--algebra", "H_C:1", "--samples", "100",
                        "--seed", "1", "--radii", "1e76", "--output", str(out),
                        "--no-timestamp"]) == 0
        assert read_json(out)["statistics"]["per_radius"][0]["radius"] == 1e76

    def test_qc_center_is_not_the_first_radius_sample(self, tmp_path):
        # the center must not repeat the draws of the first radius
        out = tmp_path / "qc.json"
        assert run(["distort", "qc", "--algebra", "H_C:1", "--samples", "100",
                    "--seed", "7", "--output", str(out), "--no-timestamp"]) == 0
        center = np.array(read_json(out)["statistics"]["center"]["v"])
        alg = hlie.algebra_from_name("H_C:1")
        rng = np.random.default_rng(np.random.SeedSequence(7).spawn(1)[0])
        first = hgroup.sample_with_rng(alg, 100, 1.0, rng)[0][0]
        cross = center[0] * first[1] - center[1] * first[0]
        assert abs(cross) > 1e-3 * np.linalg.norm(center) * np.linalg.norm(first)

    @pytest.mark.parametrize("command", ["qc", "regularity"])
    def test_malformed_radii(self, command, capsys):
        assert run(["distort", command, "--algebra", "H_C:1", "--radii", "0.1,x"]) == 1
        assert capsys.readouterr().err == (
            "error: --radii must be comma-separated floats, got '0.1,x'\n")

    def test_regularity_report(self, tmp_path):
        out = tmp_path / "reg.json"
        assert run(["distort", "regularity", "--algebra", "H_C:1",
                    "--samples", "100000", "--seed", "9",
                    "--output", str(out), "--no-timestamp"]) == 0
        payload = read_json(out)
        assert abs(payload["statistics"]["fitted_exponent"] - 4.0) <= 0.1

    def test_regularity_fits_far_from_unit_scale(self, capsys):
        assert run(["distort", "regularity", "--algebra", "H_O", "--samples", "2000",
                    "--radii", "1e10,1e11", "--no-timestamp"]) == 0
        fitted = json.loads(capsys.readouterr().out)["statistics"]["fitted_exponent"]
        assert abs(fitted - 22.0) <= 0.05

    def test_regularity_decade_precondition(self):
        assert run(["distort", "regularity", "--algebra", "H_C:1",
                    "--radii", "0.5,1.0"]) == 1


class TestTransportCommand:
    def test_all_branches_pass(self, tmp_path):
        out = tmp_path / "transport.json"
        code = run(["invert", "transport", "--algebra", "H_H:1", "--trials", "200",
                    "--seed", "10", "--output", str(out), "--no-timestamp"])
        assert code == 0
        payload = read_json(out)
        assert payload["passed"] is True
        assert set(payload["per_branch"]) == {
            "finite", "x_infinite", "x_prime_infinite", "x_equals_y"}
        assert payload["max_gauge_error"] <= 1e-9
        assert set(payload["cross_ratio_per_branch"]) == set(payload["per_branch"])
        assert payload["max_cross_ratio_deviation"] <= 1e-9

    @pytest.mark.parametrize("name,code", [("truncated_HH", 2), ("degenerate_sum", 2),
                                           ("H_C:1", 0), ("H_O", 0)])
    def test_free_points_decide_the_exit_code(self, name, code, tmp_path, capsys):
        out = tmp_path / "transport.json"
        assert run(["invert", "transport", "--algebra", name, "--trials", "200",
                    "--seed", "10", "--output", str(out), "--no-timestamp"]) == code
        payload = read_json(out)
        assert payload["passed"] is (code == 0)
        assert payload["max_gauge_error"] == 0.0
        err = capsys.readouterr().err
        if code:
            # the targets are hit on any algebra; the free points expose a non-J^2
            # group in every branch, and the message names the cross-ratios
            assert min(payload["cross_ratio_per_branch"].values()) > 1e-3
            assert err.startswith("check failed: transporter cross-ratio deviation ")
        else:
            assert err == ""


class TestReportSchema:
    """The exact keys of each report command's JSON (statistics keys for distort)."""

    COMMON = {"command", "samples", "seed"}
    ALGEBRA = {"algebra", "fingerprint", "kind"}
    CASES = {
        "algebra check": (["algebra", "check", "--kind", "quaternion", "--samples", "100"],
                          COMMON | {"tolerance", "results"}, None),
        "lie check-htype": (["lie", "check-htype", "--algebra", "H_C:1", "--samples", "100"],
                            COMMON | ALGEBRA | {"is_h_type", "max_residual", "tolerance"},
                            None),
        "lie check-j2": (["lie", "check-j2", "--algebra", "H_H:1", "--samples", "100"],
                         COMMON | ALGEBRA | {"satisfies_j2", "max_residual", "witness",
                                             "tolerance"}, None),
        "invert verify": (["invert", "verify", "--algebra", "H_C:1", "--samples", "100"],
                          COMMON | ALGEBRA | {"pairs_used", "tolerance",
                                              "max_relative_deviation", "is_exact_inversion",
                                              "worst_pair"}, None),
        "invert transport": (["invert", "transport", "--algebra", "H_C:1", "--trials", "5"],
                             {"command", "seed", "algebra", "fingerprint", "trials",
                              "tolerance", "max_gauge_error", "per_branch",
                              "max_cross_ratio_deviation", "cross_ratio_per_branch",
                              "passed"}, None),
        "distort qm": (["distort", "qm", "--domain", "{dist}", "--image", "{sph}",
                        "--samples", "100"],
                       COMMON | {"kind", "statistics", "points_used"},
                       {"strong_constant", "min_ratio", "quadruples_used",
                        "degenerate_skipped", "envelope"}),
        "distort qc": (["distort", "qc", "--algebra", "H_C:1", "--samples", "100"],
                       COMMON | ALGEBRA | {"statistics", "map"},
                       {"per_radius", "center", "annulus_width"}),
        "distort regularity": (["distort", "regularity", "--algebra", "H_C:1",
                                "--samples", "1000"],
                               COMMON | ALGEBRA | {"statistics"},
                               {"fitted_exponent", "fit_residual", "homogeneous_dimension",
                                "per_radius"}),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_exact_keys(self, command, tmp_path):
        files = {"dist": str(tmp_path / "dist.csv"), "sph": str(tmp_path / "sph.csv")}
        if command == "distort qm":
            assert run(["group", "distmat", "--algebra", "H_C:1", "--count", "12",
                        "--output", files["dist"]]) == 0
            assert run(["metric", "sphericalize", "--input", files["dist"],
                        "--output", files["sph"]]) == 0
        argv, keys, statistics = self.CASES[command]
        out = tmp_path / "report.json"
        assert run([arg.format(**files) for arg in argv]
                   + ["--output", str(out), "--no-timestamp"]) == 0
        payload = read_json(out)
        assert payload["command"] == command
        assert set(payload) == keys
        if statistics is not None:
            assert set(payload["statistics"]) == statistics


class TestReproducibility:
    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["invert", "verify", "--algebra", "H_C:1", "--samples", "30000",
                "--seed", "11", "--no-timestamp"]
        assert run(argv + ["--output", str(a)]) == 0
        assert run(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reports_are_thread_count_invariant(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["invert", "verify", "--algebra", "H_H:1", "--samples", "50000",
                "--seed", "12", "--no-timestamp"]
        assert run(base + ["--threads", "1", "--output", str(a)]) == 0
        assert run(base + ["--threads", "4", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_distmat_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["group", "distmat", "--algebra", "H_O", "--count", "25", "--seed", "13"]
        assert run(argv + ["--output", str(a)]) == 0
        assert run(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_embeds_replay_fields(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["lie", "check-htype", "--algebra", "H_O", "--samples", "500",
                    "--seed", "14", "--output", str(out), "--no-timestamp"]) == 0
        payload = read_json(out)
        assert payload["seed"] == 14
        assert payload["samples"] == 500
        assert payload["tolerance"] == 1e-9
        assert payload["fingerprint"] == hlie.algebra_from_name("H_O").fingerprint
        assert "generated_at" not in payload

    def test_timestamp_present_by_default(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["lie", "check-htype", "--algebra", "H_C:1", "--samples", "100",
                    "--seed", "0", "--output", str(out)]) == 0
        assert "generated_at" in read_json(out)


class TestAlgebraSpecFiles:
    def test_spec_file_through_cli(self, tmp_path):
        spec_path = tmp_path / "custom.json"
        write_algebra_spec(hlie.make_truncated_quaternionic(), spec_path)
        out = tmp_path / "report.json"
        code = run(["lie", "check-j2", "--algebra", str(spec_path),
                    "--output", str(out), "--no-timestamp"])
        assert code == 0
        payload = read_json(out)
        assert payload["algebra"] == "truncated_HH"
        assert payload["satisfies_j2"] is False

    def test_malformed_spec_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert run(["lie", "check-htype", "--algebra", str(path)]) == 1
