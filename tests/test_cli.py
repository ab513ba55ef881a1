"""Command-line interface: exit codes, report schemas, file pipelines,
and byte-level reproducibility."""

import json
import os
import re
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import heislab
from heislab import cli
from heislab import finite_metric as fm
from heislab import distortion, hgroup, hlie, inversion, util
from heislab.cli import run
from oracles import reject_constant, write_algebra_spec


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


# every group of the CLI and its commands
COMMANDS = {"algebra": ["check"], "lie": ["check-htype", "check-j2"],
            "group": ["sample", "distmat"], "invert": ["verify", "transport"],
            "metric": ["invert", "sphericalize"], "distort": ["qm", "qc", "regularity"]}


class TestUsage:
    """A usage error is one ``error:`` line and exit code 1, never the usage
    block and exit code 2 of a bare ``argparse`` parser; ``--help`` exits 0."""

    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["lie"],
        ["lie", "check-nothing"],
        ["lie", "check-j2", "--algebra", "H_C:1", "--bogus"],
        ["lie", "check-j2", "--algebra", "H_C:1", "--samp", "10"],
        ["lie", "check-j2", "--samples", "10"],
        ["lie", "check-j2", "--algebra"],
        ["group", "sample", "--algebra", "H_C:1", "--count", "x"],
        ["group", "sample", "--algebra", "H_C:1", "--count", "3", "--radius", "y"],
        ["lie", "check-j2", "--algebra", "H_C:1", "--expect", "maybe"],
        ["group", "sample", "--algebra", "H_C:1", "--count", "3", "surplus"],
    ], ids=["no-command", "unknown-group", "no-group-command", "unknown-command",
            "unknown-option", "abbreviated-option", "missing-required", "missing-value",
            "non-integer-count", "non-float-radius", "bad-expect-choice", "extra-argument"])
    def test_usage_error_is_one_error_line(self, argv, capsys):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, message", [
        (["algebra", "check", "--samples", "0"], "samples must be >= 1"),
        (["group", "sample", "--algebra", "H_C:1", "--count", "0"], "count must be >= 1"),
        (["invert", "transport", "--algebra", "H_C:1", "--trials", "0"], "trials must be >= 1"),
        (["invert", "verify", "--algebra", "H_C:1", "--threads", "0"], "threads must be >= 1"),
    ], ids=["check-samples", "sample-count", "transport-trials", "verify-threads"])
    def test_zero_count_is_the_library_error(self, argv, message, capsys):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    # a negative or NaN tolerance would fail every check, an infinite one pass it
    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("argv", [
        ["algebra", "check", "--samples", "10"],
        ["lie", "check-htype", "--algebra", "H_C:1"],
        ["lie", "check-j2", "--algebra", "H_C:1"],
        ["invert", "verify", "--algebra", "H_C:1", "--samples", "10"],
        ["invert", "transport", "--algebra", "H_C:1", "--trials", "1"],
    ], ids=["algebra-check", "check-htype", "check-j2", "verify", "transport"])
    def test_unusable_tolerance_is_the_library_error(self, argv, tolerance, capsys):
        assert run([*argv, "--tolerance", tolerance]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: tol must be non-negative and finite, got {float(tolerance)}\n"

    @pytest.mark.parametrize("argv", [[]] + [[group] for group in COMMANDS]
                             + [[group, name] for group in COMMANDS for name in COMMANDS[group]],
                             ids=" ".join)
    def test_help_exits_zero(self, argv, capsys):
        assert run([*argv, "--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(" ".join(["usage: heislab", *argv]))
        assert err == ""

    def test_unreadable_paths_are_one_error_line(self, tmp_path, capsys):
        for argv in (["metric", "invert", "--input", str(tmp_path / "nope.csv")],
                     ["group", "sample", "--algebra", "H_C:1", "--count", "3",
                      "--output", str(tmp_path)]):
            assert run(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_base_label_that_begins_with_a_dash(self, tmp_path, capsys):
        path, out, expected = tmp_path / "d.csv", tmp_path / "inv.csv", tmp_path / "expected.csv"
        space = fm.FiniteMetricSpace(["a", "-b", "c"], [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5],
                                                       [2.0, 1.5, 0.0]])
        fm.save_space_csv(space, path)
        fm.save_space_csv(fm.invert_space(space, 1), expected)
        assert run(["metric", "invert", "--input", str(path), "--base=-b",
                    "--output", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()
        # separated, "-b" reads as an option
        assert run(["metric", "invert", "--input", str(path), "--base", "-b"]) == 1
        assert capsys.readouterr().err == "error: argument --base: expected one argument\n"


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

    @pytest.mark.parametrize("flags", [["--quasimetric"], ["--max-points", "10"]],
                             ids=["quasimetric", "max-points"])
    @pytest.mark.parametrize("command", ["invert", "sphericalize"])
    def test_removed_closure_option_is_one_usage_error(self, matrix_file, capsys, command,
                                                       flags):
        assert run(["metric", command, "--input", str(matrix_file), *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: unrecognized arguments: {' '.join(flags)}\n"

    @pytest.mark.parametrize("command", ["invert", "sphericalize"])
    def test_closure_commands_take_input_base_and_output(self, command, capsys):
        assert run(["metric", command, "--help"]) == 0
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert options == {"--help", "--input", "--base", "--output"}

    def test_inverted_file_loads_into_every_reader(self, tmp_path, capsys):
        # a raw inversion quasimetric of this sample violates the triangle inequality
        dist, inv = tmp_path / "dist.csv", tmp_path / "inv.csv"
        assert run(["group", "distmat", "--algebra", "truncated_HH", "--count", "300",
                    "--seed", "3", "--output", str(dist)]) == 0
        space = fm.load_space_csv(dist)
        with pytest.raises(ValueError, match="triangle inequality violated"):
            fm.validate_distance_matrix(fm.inversion_quasimetric(space.dist, 0))
        assert run(["metric", "invert", "--input", str(dist), "--output", str(inv)]) == 0
        assert run(["distort", "qm", "--domain", str(dist), "--image", str(inv),
                    "--samples", "2000", "--output", str(tmp_path / "qm.json")]) == 0
        assert run(["metric", "invert", "--input", str(inv), "--base", fm.INFINITY_LABEL,
                    "--output", str(tmp_path / "back.csv")]) == 0
        assert fm.load_space_csv(tmp_path / "back.csv").n == 300
        # sphericalize reads the file, and refuses only the point at infinity it holds
        capsys.readouterr()
        assert run(["metric", "sphericalize", "--input", str(inv)]) == 1
        assert capsys.readouterr() == ("", "error: space already contains a point at infinity\n")

    def test_sphericalize(self, matrix_file, tmp_path):
        out = tmp_path / "sph.csv"
        assert run(["metric", "sphericalize", "--input", str(matrix_file),
                    "--output", str(out)]) == 0
        space = fm.load_space_csv(out)
        assert space.n == 41
        assert np.max(space.dist) <= 1.0 + 1e-12
        # the point-at-infinity flag is read back off the labels
        inv = tmp_path / "inv.csv"
        dist = tmp_path / "dist.csv"
        assert run(["metric", "invert", "--input", str(matrix_file),
                    "--output", str(inv)]) == 0
        assert run(["group", "distmat", "--algebra", "H_C:1", "--count", "5",
                    "--output", str(dist)]) == 0
        for path, flag in ((out, True), (inv, True), (dist, False)):
            assert fm.load_space_csv(path).contains_infinity is flag

    def test_written_file_reads_back_whatever_its_name(self, tmp_path):
        # the file name does not pick a format: a ".json" name holds the CSV
        # that every command writes and reads
        path = tmp_path / "d.json"
        out = tmp_path / "inv.csv"
        assert run(["group", "distmat", "--algebra", "H_C:1", "--count", "12",
                    "--seed", "6", "--output", str(path)]) == 0
        assert run(["metric", "invert", "--input", str(path), "--output", str(out)]) == 0
        assert run(["distort", "qm", "--domain", str(path), "--image", str(path),
                    "--samples", "200", "--no-timestamp"]) == 0
        expected = fm.invert_space(fm.load_space_csv(path), 0)
        inverted = fm.load_space_csv(out)
        assert inverted.labels == expected.labels
        assert inverted.dist.tobytes() == expected.dist.tobytes()

    @pytest.mark.parametrize("indent", [None, 2])
    def test_json_distance_file_is_one_error_line(self, tmp_path, capsys, indent):
        # the layout of the JSON distance files of earlier versions
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]],
                                    "contains_infinity": False}, indent=indent))
        assert run(["metric", "invert", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: distance file {path}") and err.count("\n") == 1

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
    @pytest.mark.parametrize("flags", [["--base", "3"], []])  # a finite base, then the default
    def test_second_infinity_is_refused(self, matrix_file, tmp_path, capsys, command, flags):
        sph = tmp_path / "sph.csv"
        assert run(["metric", "sphericalize", "--input", str(matrix_file),
                    "--output", str(sph)]) == 0
        capsys.readouterr()
        assert run(["metric", command, "--input", str(sph), *flags]) == 1
        assert capsys.readouterr().err == "error: space already contains a point at infinity\n"

    def test_closure_cap_counts_input_points(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(fm, "MAX_POINTS", 10)
        out = tmp_path / "sph.csv"
        for count, code in ((10, 0), (11, 1)):
            path = tmp_path / f"dist{count}.csv"
            assert run(["group", "distmat", "--algebra", "H_C:1", "--count", str(count),
                        "--seed", "5", "--output", str(path)]) == 0
            assert run(["metric", "sphericalize", "--input", str(path),
                        "--output", str(out)]) == code
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


class TestStdout:
    """Without ``--output`` a command writes to stdout what it writes to the
    file, and as it writes the file: a CSV row at a time."""

    @pytest.fixture()
    def argvs(self, tmp_path):
        matrix = tmp_path / "dist.csv"
        assert run(["group", "distmat", "--algebra", "H_C:1", "--count", "40",
                    "--seed", "5", "--output", str(matrix)]) == 0
        return {
            "sample": ["group", "sample", "--algebra", "H_C:2", "--count", "50", "--seed", "3"],
            "distmat": ["group", "distmat", "--algebra", "H_H:1", "--count", "30", "--seed", "4"],
            "invert": ["metric", "invert", "--input", str(matrix), "--base", "3"],
            "sphericalize": ["metric", "sphericalize", "--input", str(matrix)],
            "check-j2": ["lie", "check-j2", "--algebra", "truncated_HH", "--no-timestamp"],
        }

    @pytest.mark.parametrize("command", ["sample", "distmat", "invert", "sphericalize",
                                         "check-j2"])
    def test_stdout_bytes_are_the_output_file(self, argvs, command, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(argvs[command] + ["--output", str(out)]) == 0
        capsys.readouterr()
        assert run(argvs[command]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    @pytest.mark.parametrize("command", ["sample", "distmat", "invert"])
    def test_csv_reaches_stdout_a_row_at_a_time(self, argvs, command, monkeypatch):
        class Stdout:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

        stdout = Stdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run(argvs[command]) == 0
        rows = "".join(stdout.writes).splitlines(keepends=True)
        assert len(rows) > 2 and max(map(len, stdout.writes)) <= max(map(len, rows))


def python_env() -> dict:
    """The environment of a fresh interpreter that imports heislab from ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def fresh_python(code: str) -> list:
    """The stdout lines of ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], env=python_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.splitlines()


# modules that a command loads only when it calls them
LAZY_MODULES = ("heislab.inversion", "heislab.hgroup", "heislab.finite_metric",
                "heislab.distortion", "concurrent.futures")


def test_cli_import_does_not_load_scipy(tmp_path):
    # scipy is a test-only oracle: not even the commands that close a metric load it;
    # the package, the CLI and a lie check load none of the modules they do not run
    dist, out = tmp_path / "dist.csv", tmp_path / "out.csv"
    code = f"""if True:
        import sys
        def loaded():
            return [m for m in {LAZY_MODULES!r} if m in sys.modules]
        import heislab
        print(loaded())
        from heislab.cli import run
        print(loaded())
        print(run(['lie', 'check-j2', '--algebra', 'H_O', '--output', {os.devnull!r}]), loaded(),
              'click' in sys.modules)
        codes = [run(['group', 'distmat', '--algebra', 'H_C:1', '--count', '200',
                      '--seed', '5', '--output', {str(dist)!r}])]
        codes += [run(['metric', c, '--input', {str(dist)!r}, '--output', {str(out)!r}])
                  for c in ('sphericalize', 'invert')]
        print(codes, any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))
    """
    assert fresh_python(code) == ["[]", "[]", "0 [] False", "[0, 0, 0] False"]
    assert fm.load_space_csv(out).n == 200


def test_package_loads_its_modules_on_first_use():
    code = """if True:
        import heislab
        print(heislab.inversion.__name__, heislab.finite_metric.MAX_POINTS)
        from heislab import distortion
        print(distortion.__name__)
        try:
            heislab.nonexistent
        except AttributeError as exc:
            print(exc)
    """
    assert fresh_python(code) == ["heislab.inversion 2000", "heislab.distortion",
                                  "module 'heislab' has no attribute 'nonexistent'"]
    star = ("from heislab import *\nprint(sorted(m.__name__ for m in (algebra, distortion, "
            "finite_metric, hgroup, hlie, inversion, util)))")
    assert fresh_python(star) == [str(sorted(f"heislab.{m}" for m in heislab.__all__))]


class TestConsoleEntry:
    """``cli.entrypoint``, the console script, and ``cli.run`` in a fresh
    interpreter: the outputs and exit codes of ``run``, on a heap that glibc
    keeps."""

    ENTRYPOINT = "from heislab.cli import entrypoint; entrypoint()"

    @staticmethod
    def entry(argv, code=ENTRYPOINT) -> tuple:
        """Exit code, stdout and stderr of one entry process."""
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              env=python_env(), capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    @pytest.mark.parametrize("threads", [[], ["--threads", "1"]])
    def test_verify_bytes_are_those_of_run(self, threads, capsys):
        argv = ["invert", "verify", "--algebra", "H_O", "--samples",
                str(2 * util._CHUNK + 5), "--seed", "3", "--no-timestamp", *threads]
        assert run(argv) == 0
        expected = capsys.readouterr().out.encode()
        assert self.entry(argv) == (0, expected, b"")

    def test_stdout_bytes_are_the_output_file(self, tmp_path):
        out = tmp_path / "dist.csv"
        argv = ["group", "distmat", "--algebra", "H_C:1", "--count", "300", "--seed", "2"]
        assert run(argv + ["--output", str(out)]) == 0
        assert self.entry(argv) == (0, out.read_bytes(), b"")

    def test_stdout_closed_early_is_an_io_error(self):
        # 1.8 MB of CSV, far more than a pipe holds: the writer meets the closed
        # pipe, with stdout buffered or not (PYTHONUNBUFFERED)
        proc = subprocess.Popen([sys.executable, "-c", self.ENTRYPOINT, "group", "distmat",
                                 "--algebra", "H_C:1", "--count", "300"], env=python_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(100).startswith(b"0,1,2,")
        proc.stdout.close()
        assert (proc.wait(timeout=120), proc.stderr.read()) == \
            (1, b"error: [Errno 32] Broken pipe\n")
        proc.stderr.close()

    def test_exit_codes_are_those_of_run(self, capsys):
        inexact = ["invert", "verify", "--algebra", "H_C:1", "--samples", "2000",
                   "--expect", "inexact", "--no-timestamp"]
        unknown = ["invert", "verify", "--algebra", "H_X:2"]
        for argv, code in ((inexact, 2), (unknown, 1)):
            assert run(argv) == code
            out, err = capsys.readouterr()
            assert self.entry(argv) == (code, out.encode(), err.encode())

    def verify_faults(self, code) -> int:
        """Minor faults of an entry process that verifies H_O at 1e6 pairs."""
        resource = pytest.importorskip("resource")
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        assert self.entry(["invert", "verify", "--algebra", "H_O", "--samples", "1000000",
                           "--seed", "3", "--no-timestamp"], code)[0] == 0
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    def test_verify_chunks_do_not_fault_in_again(self):
        # about 15k minor faults on 2 vCPUs and 2 forked workers, about 5k
        # of them the start-up; about 96k when glibc trims the heap after
        # every chunk
        assert self.verify_faults(self.ENTRYPOINT) <= 25000

    def test_run_keeps_the_heap_in_process(self):
        # cli.run itself keeps the heap: about 15k minor faults, as the
        # console script; about 126k unpinned
        assert self.verify_faults("import sys; from heislab.cli import run; "
                                  "sys.exit(run())") <= 25000

    def test_only_the_console_entry_freezes_the_heap(self):
        # the console script freezes its import heap; cli.run, which in-process
        # callers run many times, leaves the collector as it is
        argv = ["lie", "check-j2", "--algebra", "H_H:1", "--output", os.devnull]
        entry = ("import gc\nfrom heislab.cli import entrypoint\ntry:\n    entrypoint()\n"
                 "except SystemExit as exc:\n    print(exc.code, gc.get_freeze_count() > 0)")
        in_process = ("import gc, sys\nfrom heislab.cli import run\n"
                      "print(run(sys.argv[1:]), gc.get_freeze_count())")
        assert self.entry(argv, entry) == (0, b"0 True\n", b"")
        assert self.entry(argv, in_process) == (0, b"0 0\n", b"")

    @pytest.mark.parametrize("libc", [object(), OSError("no handle")])
    def test_heap_helper_is_a_no_op_without_mallopt(self, monkeypatch, libc):
        def cdll(name):
            if isinstance(libc, Exception):
                raise libc
            return libc

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli._keep_heap() is None


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

    def test_qc_rejects_zero_samples(self, capsys):
        assert run(["distort", "qc", "--algebra", "H_C:1", "--samples", "0"]) == 1
        assert capsys.readouterr().err == "error: samples must be >= 1\n"

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

    @pytest.mark.parametrize("factor, bound", [("1e-160", "too small"), ("1e160", "too large")])
    def test_qc_rejects_a_dilation_past_the_sampler_range(self, factor, bound, capsys):
        # t^2 z under- or overflowed here: ratios of 25 and 235, or NaN, at exit 0
        assert run(["distort", "qc", "--algebra", "H_C:1", "--map", f"dilate:{factor}",
                    "--samples", "1000", "--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: dilated center gauge or radius {float(factor)} is {bound}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("factor", ["1e-100", "1e100"])
    def test_qc_dilation_far_from_unit_scale_keeps_the_identity_ratios(self, factor, tmp_path):
        ratios = {}
        for name in ("identity", f"dilate:{factor}"):
            out = tmp_path / "qc.json"
            assert run(["distort", "qc", "--algebra", "H_C:1", "--map", name, "--samples",
                        "1000", "--seed", "3", "--output", str(out), "--no-timestamp"]) == 0
            ratios[name] = [e["ratio"] for e in read_json(out)["statistics"]["per_radius"]]
        expected = np.array(ratios["identity"])
        assert np.all(np.abs(np.array(ratios[f"dilate:{factor}"]) - expected) <= 1e-9 * expected)

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
        # the first chunk of the first radius
        rng = np.random.default_rng(np.random.SeedSequence(7).spawn(1)[0].spawn(1)[0])
        first = hgroup.sample_with_rng(alg, 100, 1.0, rng)[0][0]
        cross = center[0] * first[1] - center[1] * first[0]
        assert abs(cross) > 1e-3 * np.linalg.norm(center) * np.linalg.norm(first)

    @pytest.mark.parametrize("name", ["identity", "inversion", "dilate:2"])
    def test_qc_map_is_the_direct_callable(self, name, capsys):
        alg = hlie.algebra_from_name("H_H:1")
        point_map = {"identity": lambda v, z: (v, z),
                     "inversion": partial(inversion.sigma_arrays, alg),
                     "dilate:2": partial(hgroup.dilate_arrays, 2.0)}[name]
        report = distortion.estimate_qc_ratio(alg, point_map,
                                              distortion.random_center(alg, 1.0, seed=5),
                                              [0.1, 0.01], samples=3000, seed=5)
        assert run(["distort", "qc", "--algebra", "H_H:1", "--map", name, "--radii",
                    "0.1,0.01", "--samples", "3000", "--seed", "5", "--no-timestamp"]) == 0
        assert capsys.readouterr().out == util.canonical_json(
            {"command": "distort qc", **report.to_dict(), "map": name})

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
        assert run(["distort", "regularity", "--algebra", "H_O", "--samples", "50000",
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
                        "degenerate_skipped", "nonfinite_skipped", "envelope"}),
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
        # no --threads runs on every CPU the process may use
        a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        base = ["invert", "verify", "--algebra", "H_H:1", "--samples", "50000",
                "--seed", "12", "--no-timestamp"]
        assert run(base + ["--threads", "1", "--output", str(a)]) == 0
        assert run(base + ["--threads", "4", "--output", str(b)]) == 0
        assert run(base + ["--output", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

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


class TestStrictJson:
    def test_overflowed_residual_is_a_string(self, tmp_path):
        # a valid spec whose entries lie near 1e160: the H-type residual overflows
        upper = np.triu(np.random.default_rng(1).uniform(3e159, 2e160, size=(2, 3, 3)), 1)
        spec = tmp_path / "big.json"
        write_algebra_spec(hlie.HTypeAlgebra("big", 3, 2, upper - upper.transpose(0, 2, 1)),
                           spec)
        out = tmp_path / "report.json"
        assert run(["lie", "check-htype", "--algebra", str(spec), "--output", str(out),
                    "--no-timestamp"]) == 0
        payload = json.loads(out.read_text(), parse_constant=reject_constant)
        assert payload["max_residual"] == "Infinity" and payload["is_h_type"] is False


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

    def test_builtin_name_is_not_a_file_of_that_name(self, tmp_path, monkeypatch):
        # a file named like a builtin, in the working directory, does not shadow it
        monkeypatch.chdir(tmp_path)
        assert run(["group", "sample", "--algebra", "H_C:1", "--count", "3",
                    "--output", "H_O"]) == 0
        out = tmp_path / "report.json"
        assert run(["lie", "check-htype", "--algebra", "H_O", "--output", str(out),
                    "--no-timestamp"]) == 0
        payload = read_json(out)
        assert payload["is_h_type"] is True
        assert payload["fingerprint"] == hlie.algebra_from_name("H_O").fingerprint

    def test_spec_file_by_a_name_that_is_no_builtin(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_algebra_spec(hlie.make_truncated_quaternionic(), tmp_path / "custom")
        out = tmp_path / "report.json"
        assert run(["lie", "check-htype", "--algebra", "custom", "--output", str(out),
                    "--no-timestamp"]) == 0
        assert read_json(out)["algebra"] == "truncated_HH"

    def test_malformed_spec_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert run(["lie", "check-htype", "--algebra", str(path)]) == 1

    @pytest.mark.parametrize("text", [
        '{"label": "x", "dim_v": null, "dim_z": 1, "entries": []}',
        '{"label": "x", "dim_v": Infinity, "dim_z": 1, "entries": []}',
        '{"label": "x", "dim_v": 2, "dim_z": 1, "entries": 5}',
        '{"label": "x", "dim_v": 2, "dim_z": 1, "entries": [5]}',
        '{"label": "x", "dim_v": 2, "dim_z": 1, "entries": [[1, 2, 1]]}',
        '{"label": "x", "dim_v": 2, "dim_z": 1, "entries": [[1, 2, 1, null]]}',
        '{"label": "x", "dim_v": 2, "dim_z": 1, "entries": [[1, 2, 1, 1e999999]]}',
        '[1, 2]',
        '{"label": "x", "dim_v": 2.9, "dim_z": 1, "entries": []}',
        '{"label": "x", "dim_v": true, "dim_z": 1, "entries": []}',
        '{"label": "x", "dim_v": 2, "dim_z": 1, "entries": [[1, 2.5, 1, 1.0]]}',
        # 8e18 bytes: rejected by the size cap before np.zeros is reached
        '{"label": "x", "dim_v": 1000000, "dim_z": 1000000, "entries": []}',
    ])
    def test_ill_typed_spec_file_is_one_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run(["lie", "check-htype", "--algebra", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: algebra spec {path}") and err.count("\n") == 1

    # the spec-file cap, checked before np.zeros; each is about 134 MB per tensor copy,
    # or per dim_v x dim_v matrix of an empty center
    @pytest.mark.parametrize("name", ["H_C:2049", "H_H:592", "H_R:4097"])
    def test_builtin_name_above_the_size_cap_is_one_error_line(self, capsys, name):
        assert run(["group", "sample", "--algebra", name, "--count", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {name}: max(dim_z, 1) * dim_v**2 exceeds the cap of "
                       f"{hlie._MAX_SPEC_ENTRIES} structure-tensor entries\n")

    def test_builtin_name_at_the_size_cap_loads(self):
        assert run(["group", "sample", "--algebra", "H_R:4096", "--count", "1",
                    "--output", os.devnull]) == 0

    # each J^2 cubic of H_H:17 has 68**4 > 2**24 coefficients, refused before it is built
    def test_j2_cubic_above_the_size_cap_is_one_error_line(self, capsys):
        assert run(["lie", "check-j2", "--algebra", "H_H:17"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: H_H:17: dim_v**4 exceeds the cap of "
                       f"{hlie._MAX_SPEC_ENTRIES} J^2 cubic coefficients\n")
