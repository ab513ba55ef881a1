"""The three workloads: their argv lists, generated inputs and output checks.

Every argv list is a function of the workload seed and the size ("full" for
measurement, "tiny" for the self-test).  Each operation must exit with 0
and carries a check of its output; a check returns a problem description,
or None when the output is right.  See README.md for why each
workload was chosen and what it predicts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

INFINITY_LABEL = "∞"


@dataclass
class Op:
    label: str
    argv: list
    check: Callable  # check(stdout_bytes, workdir) -> problem description or None
    outputs: tuple = ()  # files the operation writes, relative to the work directory
    kind: str = ""  # "verify" for the operations counted in verify_pairs_per_s


@dataclass
class Workload:
    ops: list
    inputs: dict = field(default_factory=dict)  # file name -> bytes, written at set-up
    probes: list = field(default_factory=list)  # known-defect probes, run after the window


# ---------------------------------------------------------------------------
# output checks


def _report(stdout: bytes) -> dict:
    return json.loads(stdout.decode("utf-8"))


def check_algebra(stdout, workdir):
    bad = [r["kind"] for r in _report(stdout)["results"] if not r["passed"]]
    return f"arithmetic check failed for {bad}" if bad else None


def check_verdict(key: str, expected: bool):
    def check(stdout, workdir):
        report = _report(stdout)
        if report[key] is not expected:
            return f"{report['algebra']}: {key} is {report[key]}, expected {expected}"
        return None
    return check


def check_verify(exact: bool):
    def check(stdout, workdir):
        report = _report(stdout)
        dev = report["max_relative_deviation"]
        if exact and not (report["is_exact_inversion"] and dev <= 1e-9):
            return f"{report['algebra']}: deviation {dev!r}, expected exact within 1e-9"
        if not exact and (report["is_exact_inversion"] or report["worst_pair"] is None):
            return f"{report['algebra']}: expected inexact with a witness pair"
        if report["pairs_used"] < 1:
            return f"{report['algebra']}: no pairs used"
        return None
    return check


def check_regularity(exponent: float):
    def check(stdout, workdir):
        fitted = _report(stdout)["statistics"]["fitted_exponent"]
        if abs(fitted - exponent) > 0.05:
            return f"regularity exponent {fitted!r} is not within 0.05 of {exponent}"
        return None
    return check


def check_qm(stdout, workdir):
    constant = _report(stdout)["statistics"]["strong_constant"]
    if not 1.0 <= constant <= 16.0:
        return f"strong quasimobius constant {constant!r} outside [1, 16]"
    return None


def check_transport(stdout, workdir):
    report = _report(stdout)
    return None if report["passed"] else f"transporter error {report['max_gauge_error']!r}"


def check_qc(stdout, workdir):
    # The inversion is conformal: at the smallest radius the ratio is near 1.
    per_radius = _report(stdout)["statistics"]["per_radius"]
    if any(r["insufficient_sampling"] for r in per_radius):
        return "a quasiconformality radius was insufficiently sampled"
    ratio = per_radius[-1]["ratio"]
    if not abs(ratio - 1.0) <= 0.05:
        return f"quasiconformality ratio {ratio!r} at the smallest radius is not within 0.05 of 1"
    return None


def check_points(count: int, dim: int):
    def check(stdout, workdir):
        lines = stdout.decode("utf-8").splitlines()
        values = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
        if len(lines[0].split(",")) != dim or values.shape != (count, dim):
            return f"point sample has shape {values.shape}, expected {(count, dim)}"
        return None if np.all(np.isfinite(values)) else "non-finite point coordinate"
    return check


def read_space(path):
    """Labels and matrix of a heislab distance CSV, parsed independently of heislab."""
    with open(path, encoding="utf-8", newline="") as fh:
        labels = fh.readline().rstrip("\r\n").split(",")
    dist = np.loadtxt(path, delimiter=",", skiprows=1, encoding="utf-8", ndmin=2)
    return labels, dist


def write_space(labels, dist) -> bytes:
    rows = [",".join(labels)] + [",".join(repr(float(x)) for x in row) for row in dist]
    return ("\r\n".join(rows) + "\r\n").encode("utf-8")


def check_distmat(name: str, count: int):
    def check(stdout, workdir):
        labels, d = read_space(os.path.join(workdir, name))
        if labels != [str(i) for i in range(count)] or d.shape != (count, count):
            return f"{name}: {len(labels)} labels and shape {d.shape}, expected {count} points"
        off = ~np.eye(count, dtype=bool)
        if not (np.array_equal(d, d.T) and np.all(np.diag(d) == 0.0) and np.all(d[off] > 0.0)):
            return f"{name}: not symmetric with zero diagonal and positive distances"
        return None
    return check


def check_sandwich(source: str, result: str, kind: str):
    """The chain metric d of a quasimetric q satisfies q/4 <= d <= q (base: first label)."""
    def check(stdout, workdir):
        labels, d = read_space(os.path.join(workdir, source))
        out_labels, chain = read_space(os.path.join(workdir, result))
        if kind == "sphericalize":
            weight = 1.0 + d[0]
            q = np.zeros((d.shape[0] + 1,) * 2)
            q[:-1, :-1] = d / np.outer(weight, weight)
            q[:-1, -1] = q[-1, :-1] = 1.0 / weight
            expected = labels + [INFINITY_LABEL]
        else:
            to_base = d[0, 1:]
            q = np.zeros_like(d)
            q[:-1, :-1] = d[1:, 1:] / np.outer(to_base, to_base)
            q[:-1, -1] = q[-1, :-1] = 1.0 / to_base
            expected = labels[1:] + [INFINITY_LABEL]
        np.fill_diagonal(q, 0.0)
        if out_labels != expected or chain.shape != q.shape:
            return f"{result}: labels or shape {chain.shape} do not match the {kind}d input"
        rel = 1e-12
        if np.any(chain > q * (1 + rel)) or np.any(chain < 0.25 * q * (1 - rel)):
            worst = float(np.max(q / np.where(chain > 0, chain, np.inf)))
            return f"{result}: chain metric leaves the 1/4 sandwich (max q/d = {worst!r})"
        return None
    return check


# ---------------------------------------------------------------------------
# workloads

SIZES = {
    "full": dict(verify=1_000_000, algebra=100_000, lie=10_000, regularity=200_000,
                 points=1000, qm=500_000, pipeline_verify=1_000_000),
    "tiny": dict(verify=20_000, algebra=2_000, lie=1_000, regularity=100_000,
                 points=40, qm=20_000, pipeline_verify=5_000),
}


def _seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def certify(seed: int, size: str) -> Workload:
    n = SIZES[size]
    s = iter(_seeds(seed, 32))
    ts = "--no-timestamp"

    def lie(cmd, algebra, expect, key, value):
        return Op(f"lie {cmd} {algebra}",
                  ["lie", cmd, "--algebra", algebra, "--samples", str(n["lie"]),
                   "--seed", str(next(s)), "--expect", expect, ts],
                  check_verdict(key, value))

    def verify(algebra, expect, *extra):
        return Op(f"invert verify {algebra} {' '.join(extra)}".rstrip(),
                  ["invert", "verify", "--algebra", algebra, "--samples", str(n["verify"]),
                   "--seed", str(next(s)), "--expect", expect, *extra, ts],
                  check_verify(expect == "exact"), kind="verify")

    ops = [
        Op("algebra check", ["algebra", "check", "--samples", str(n["algebra"]),
                             "--seed", str(next(s)), ts], check_algebra),
        lie("check-htype", "H_O", "htype", "is_h_type", True),
        lie("check-j2", "H_O", "j2", "satisfies_j2", True),
        lie("check-htype", "H_H:2", "htype", "is_h_type", True),
        lie("check-j2", "H_H:2", "j2", "satisfies_j2", True),
        lie("check-j2", "truncated_HH", "not-j2", "satisfies_j2", False),
        lie("check-htype", "degenerate_sum", "not-htype", "is_h_type", False),
        verify("H_C:2", "exact"),
        verify("H_H:2", "exact"),
        verify("H_O", "exact"),
        verify("truncated_HH", "inexact"),
        verify("H_O", "exact", "--threads", "2"),
        Op("distort regularity H_O",
           ["distort", "regularity", "--algebra", "H_O", "--samples", str(n["regularity"]),
            "--seed", str(next(s)), ts], check_regularity(22.0)),
    ]
    return Workload(ops)


def wrong_expectation() -> Op:
    """For the self-test: an expectation the program must refute (exit 2)."""
    return Op("invert verify truncated_HH --expect exact (deliberately wrong)",
              ["invert", "verify", "--algebra", "truncated_HH", "--samples", "2000",
               "--seed", "1", "--expect", "exact", "--no-timestamp"],
              check_verify(True), kind="verify")


def metric_pipeline(seed: int, size: str) -> Workload:
    n = SIZES[size]
    s = iter(_seeds(seed, 8))
    count = n["points"]
    ts = "--no-timestamp"
    ops = [
        Op("invert verify H_C:1",
           ["invert", "verify", "--algebra", "H_C:1", "--samples", str(n["pipeline_verify"]),
            "--seed", str(next(s)), "--expect", "exact", ts], check_verify(True), kind="verify"),
        Op("group distmat H_C:1",
           ["group", "distmat", "--algebra", "H_C:1", "--count", str(count),
            "--seed", str(next(s)), "--output", "domain.csv"],
           check_distmat("domain.csv", count), outputs=("domain.csv",)),
        Op("metric sphericalize",
           ["metric", "sphericalize", "--input", "domain.csv", "--output", "spherical.csv"],
           check_sandwich("domain.csv", "spherical.csv", "sphericalize"),
           outputs=("spherical.csv",)),
        Op("metric invert",
           ["metric", "invert", "--input", "domain.csv", "--output", "inverted.csv"],
           check_sandwich("domain.csv", "inverted.csv", "invert"), outputs=("inverted.csv",)),
        Op("distort qm spherical",
           ["distort", "qm", "--domain", "domain.csv", "--image", "spherical.csv",
            "--samples", str(n["qm"]), "--seed", str(next(s)), ts], check_qm),
        Op("distort qm inverted",
           ["distort", "qm", "--domain", "domain.csv", "--image", "inverted.csv",
            "--samples", str(n["qm"]), "--seed", str(next(s)), ts], check_qm),
    ]
    return Workload(ops)


def cli_burst(seed: int, size: str) -> Workload:
    s = iter(_seeds(seed, 16))
    ts = "--no-timestamp"
    # A Euclidean point cloud in R^3: a metric that is not a gauge metric.
    points = np.random.default_rng(next(s)).uniform(-1.0, 1.0, size=(50, 3))
    dist = np.sqrt(np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2))
    ops = [
        Op("lie check-htype H_C:2",
           ["lie", "check-htype", "--algebra", "H_C:2", "--samples", "2000",
            "--seed", str(next(s)), "--expect", "htype", ts], check_verdict("is_h_type", True)),
        Op("lie check-j2 H_H:1",
           ["lie", "check-j2", "--algebra", "H_H:1", "--samples", "2000",
            "--seed", str(next(s)), "--expect", "j2", ts], check_verdict("satisfies_j2", True)),
        Op("lie check-j2 truncated_HH",
           ["lie", "check-j2", "--algebra", "truncated_HH", "--samples", "2000",
            "--seed", str(next(s)), "--expect", "not-j2", ts],
           check_verdict("satisfies_j2", False)),
        Op("invert verify H_C:1",
           ["invert", "verify", "--algebra", "H_C:1", "--samples", "10000",
            "--seed", str(next(s)), "--expect", "exact", ts], check_verify(True), kind="verify"),
        Op("invert verify H_H:1",
           ["invert", "verify", "--algebra", "H_H:1", "--samples", "2000",
            "--seed", str(next(s)), "--expect", "exact", ts], check_verify(True), kind="verify"),
        Op("invert transport H_C:1",
           ["invert", "transport", "--algebra", "H_C:1", "--trials", "100",
            "--seed", str(next(s)), ts], check_transport),
        Op("group sample H_C:2",
           ["group", "sample", "--algebra", "H_C:2", "--count", "200",
            "--seed", str(next(s))], check_points(200, 5)),
        Op("distort qc H_C:1",
           ["distort", "qc", "--algebra", "H_C:1", "--samples", "2000",
            "--seed", str(next(s)), ts], check_qc),
        Op("metric sphericalize 50",
           ["metric", "sphericalize", "--input", "cloud.csv", "--output", "cloud_sph.csv"],
           check_sandwich("cloud.csv", "cloud_sph.csv", "sphericalize"),
           outputs=("cloud_sph.csv",)),
    ]
    # Dilation probes (a known defect): the identity is exact at every scale,
    # but today these report an inf deviation (exit 2) and no usable pairs (exit 1).
    probes = [
        Op(f"invert verify H_C:2 radius {radius}",
           ["invert", "verify", "--algebra", "H_C:2", "--samples", "2000", "--radius", radius,
            "--seed", str(next(s)), "--expect", "exact", ts], check_verify(True))
        for radius in ("1e-77", "1e77")
    ]
    labels = [str(i) for i in range(points.shape[0])]
    return Workload(ops, inputs={"cloud.csv": write_space(labels, dist)}, probes=probes)


WORKLOADS = {
    "certify": certify,
    "metric-pipeline": metric_pipeline,
    "cli-burst": cli_burst,
}
