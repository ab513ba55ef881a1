#!/usr/bin/env python3
"""Benchmark of the heislab command line, run from the root of a source checkout.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One single-threaded closed-loop client runs the workload's argv lists as
``heislab`` subprocesses (the source tree under ``src/`` on PYTHONPATH);
the next command starts only after the previous one has exited.  Passes
over the command list repeat until ``--seconds`` would be exceeded (at
least one pass).  Every output is checked; a wrong exit code or a missed
check counts the operation as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs
the command list once as subprocesses (reference bytes), once in-process
through ``heislab.cli.run`` untraced, and once in-process with every
public library function wrapped in a span recorder, and prints the
per-layer metrics.  The last line of standard output is the JSON result;
the line before it holds provenance and details.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCH = "from heislab.cli import entrypoint; entrypoint()"  # as the console script
OP_TIMEOUT_S = 100
SETUPS = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed on the detail line only: each rests on a few single commands on some
# workload, too few for a run-to-run spread within a bound (see README.md).
UNBOUNDED = {"op_p50_ms": "ms", "op_tail_ms": "ms", "verify_pairs_per_s": "1/s"}

KERNEL = ("calls", "rows", "self_s", "failed", "bytes")
ESTIMATOR = ("calls", "rows", "self_s", "failed")
LAYERS = {
    "hlie.bracket_arrays": KERNEL,
    "inversion.sigma_arrays": KERNEL,
    "hgroup.gauge_arrays": KERNEL,
    "hgroup.gauge_dist_arrays": KERNEL,
    "hgroup.sample_with_rng": KERNEL,
    "inversion.verify_inversion": ("self_s", "used_ratio"),
    "hlie.check_h_type": ESTIMATOR,
    "hlie.check_j2": ESTIMATOR,
    "algebra.mul_arrays": KERNEL,
    "distortion.estimate_regularity": ("self_s", "hit_ratio"),
    "finite_metric.validate_distance_matrix": ("calls", "rows", "self_s"),
    "finite_metric.chain_metric": KERNEL,
    "finite_metric.load_space_csv": ("self_s", "bytes"),
    "finite_metric.save_space_csv": ("self_s", "bytes"),
    "finite_metric.from_group_arrays": ("self_s",),
    "hgroup.pairwise_gauge_dist": KERNEL,
    "distortion.estimate_quasimobius": ("self_s", "used_ratio"),
    "distortion.sample_quadruples": KERNEL,
    "distortion.cross_ratio_rows": KERNEL,
    "cli.run": ("calls", "self_s", "failed"),
    "util.canonical_json": ("self_s", "bytes"),
    "inversion.pair_transporter": ("calls", "self_s", "failed"),
    "hgroup.group_mul": ("calls",),
}
STAT_UNITS = {"calls": "count", "rows": "rows", "self_s": "s", "failed": "count",
              "bytes": "B_computed", "used_ratio": "ratio", "hit_ratio": "ratio"}


def layer_units() -> dict:
    """Per-layer metric name -> unit, in the order printed."""
    units = {"cli.import_s": "s"}
    for layer, stats in LAYERS.items():
        for stat in stats:
            # canonical_json's bytes are the emitted text, not array shapes
            text = layer == "util.canonical_json" and stat == "bytes"
            units[f"{layer}.{stat}"] = "B" if text else STAT_UNITS[stat]
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# running operations


class OperationTimeout(Exception):
    """Raised by SIGALRM when a child process outlives OP_TIMEOUT_S."""


def _alarm(signum, frame):
    raise OperationTimeout


def run_child(argv, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` with a blocking wait.  A ``timeout=`` argument would
    make the wait poll in steps of up to 50 ms, which shows in the timings;
    SIGALRM bounds the wait instead, and ``subprocess.run`` kills the child."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        return subprocess.run(argv, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Client:
    """The closed-loop client: one operation at a time, in one work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def subprocess_op(self, op) -> tuple:
        start = time.perf_counter()
        try:
            proc = run_child([sys.executable, "-c", LAUNCH, *op.argv], cwd=self.workdir,
                             env=self.env, capture_output=True)
            rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except OperationTimeout:
            rc, stdout, stderr = None, b"", b"timed out"
        return time.perf_counter() - start, rc, stdout, stderr

    def evaluate(self, op, rc, stdout, stderr):
        """None when the operation returned the right exit code and output."""
        if rc != 0:
            lines = stderr.decode("utf-8", "replace").strip().splitlines()
            return f"{op.label}: exit code {rc}, expected 0 ({lines[-1] if lines else ''})"
        try:
            problem = op.check(stdout, self.workdir)
        except Exception as exc:  # a malformed output is a failed check
            problem = f"output check raised {exc!r}"
        return f"{op.label}: {problem}" if problem else None

    def digest(self, op, stdout) -> list:
        parts = [hashlib.sha256(stdout).hexdigest()]
        for name in op.outputs:
            path = self.workdir / name
            parts.append(hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None)
        return parts


def inprocess_op(cli, op) -> tuple:
    """Run one argv list through ``cli.run`` in this process, capturing its output."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline="", write_through=True)
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(list(op.argv))
        except Exception as exc:  # an escaped exception is a failed operation
            rc = None
            err.write(repr(exc))
    return time.perf_counter() - start, rc, raw.getvalue(), err.getvalue().encode()


def set_up(name: str, seed: int, size: str, client: Client):
    """Generate the inputs into a fresh work directory and warm the import once."""
    start = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed, size)
    shutil.rmtree(client.workdir, ignore_errors=True)
    client.workdir.mkdir(parents=True)
    for file_name, data in workload.inputs.items():
        (client.workdir / file_name).write_bytes(data)
    run_child([sys.executable, "-c", "import heislab.cli"], env=client.env, check=True)
    return workload, time.perf_counter() - start


def tail(latencies: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, or with half
    of them beyond it when a run has fewer than twenty, so that the tail never
    falls below the median: (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    beyond = min(10, len(ordered) // 2)
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def measure(workload, client: Client, seconds: float) -> tuple:
    """Untraced passes until the window is used up: (metrics, attempted, failures, detail)."""
    pass_walls, pass_totals, latencies, failures = [], [], [], []
    by_label = {op.label: [] for op in workload.ops}
    pairs, verify_s = 0, 0.0
    window = time.perf_counter()
    while True:
        assert threading.active_count() == 1, "the client must stay single-threaded"
        start = time.perf_counter()
        records = [(op, *client.subprocess_op(op)) for op in workload.ops]
        pass_walls.append(time.perf_counter() - start)
        for op, latency, rc, stdout, stderr in records:
            latencies.append(latency)
            by_label[op.label].append(latency)
            problem = client.evaluate(op, rc, stdout, stderr)
            if problem:
                failures.append(problem)
            if op.kind == "verify":
                verify_s += latency
                if not problem:
                    pairs += json.loads(stdout)["pairs_used"]
        pass_totals.append(time.perf_counter() - start)
        if time.perf_counter() - window + statistics.median(pass_totals) > seconds:
            break
    tail_ms, tail_pct, beyond = tail(latencies)
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "op_p50_ms": 1000.0 * statistics.median_low(latencies),
        "op_tail_ms": 1000.0 * tail_ms,
        "verify_pairs_per_s": pairs / verify_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    detail = {"passes": len(pass_walls), "pass_wall_s": pass_walls, "operations": len(latencies),
              "op_tail_percentile": tail_pct, "op_tail_samples_beyond": beyond,
              "op_median_s": {label: statistics.median(v) for label, v in by_label.items()}}
    return metrics, len(latencies), failures, detail


def probe(workload, client: Client) -> dict:
    """Run the known-defect probes once, outside the measured window."""
    results = []
    for op in workload.probes:
        _, rc, stdout, stderr = client.subprocess_op(op)
        results.append({"label": op.label, "exit_code": rc,
                        "problem": client.evaluate(op, rc, stdout, stderr)})
    return {"attempted": len(results),
            "failed": sum(1 for r in results if r["problem"]),
            "results": results}


def import_seconds(client: Client) -> float:
    """A fresh interpreter's ``import heislab.cli`` minus a bare start-up (medians of 3)."""
    def median_run(code):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            run_child([sys.executable, "-c", code], env=client.env, check=True)
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    return median_run("import heislab.cli") - median_run("pass")


def traced(workload, client: Client) -> tuple:
    """Reference subprocess pass, untraced and traced in-process passes:
    (metrics, attempted, failures, detail)."""
    import tracing
    sys.path.insert(0, str(SRC))
    import heislab.cli as cli

    import_s = import_seconds(client)
    failures = {}  # operation label -> first problem
    reference = []
    for op in workload.ops:
        _, rc, stdout, stderr = client.subprocess_op(op)
        problem = client.evaluate(op, rc, stdout, stderr)
        reference.append((rc, client.digest(op, stdout)))
        if problem:
            failures[op.label] = problem

    cwd = os.getcwd()
    os.chdir(client.workdir)
    tracer = tracing.Tracer()
    try:
        start = time.perf_counter()
        for op in workload.ops:
            inprocess_op(cli, op)
        untraced_s = time.perf_counter() - start
        tracer.install()
        try:
            start = time.perf_counter()
            records = [inprocess_op(cli, op) for op in workload.ops]
            traced_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        # the digest reads the outputs of the last (traced) pass
        for op, (_, rc, stdout, _), ref in zip(workload.ops, records, reference):
            if (rc, client.digest(op, stdout)) != ref and op.label not in failures:
                failures[op.label] = "traced output is not byte-identical to the subprocess output"
    finally:
        os.chdir(cwd)

    unbound = [name for name in LAYERS if not tracer.binding_sites.get(name)]
    if unbound:
        raise RuntimeError(f"listed functions found at no binding site: {unbound}")
    worker_parents = tracer.worker_parents()
    if worker_parents - {"inversion.verify_inversion"}:
        raise RuntimeError(f"worker-thread spans with parents {sorted(map(str, worker_parents))}")

    table = tracer.layer_table()
    metrics = {"cli.import_s": import_s}
    for layer, stats in LAYERS.items():
        row = table.get(layer) or tracing.empty_row()
        for stat in stats:
            if stat.endswith("_ratio"):
                value = row["used"] / row["attempted"] if row["attempted"] else 0.0
            else:
                value = row[stat]
            metrics[f"{layer}.{stat}"] = value
    metrics["trace.overhead_s"] = traced_s - untraced_s
    detail = {"untraced_inprocess_s": untraced_s, "traced_inprocess_s": traced_s,
              "spans": len(tracer.spans), "binding_sites": tracer.binding_sites,
              "worker_span_parents": sorted(map(str, worker_parents)),
              "layers": {name: {k: v for k, v in row.items() if v}
                         for name, row in sorted(table.items())}}
    return metrics, len(workload.ops), list(failures.values()), detail


# ---------------------------------------------------------------------------


def provenance(args) -> dict:
    versions = {}
    for package in ("numpy", "scipy", "click"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    commit = None
    if (ROOT / ".git").exists():
        proc = run_child(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "heislab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "git_commit": commit,
            "source_sha256": digest.hexdigest(), "python": platform.python_version(),
            **versions, "nproc": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
            "client": "one process, one thread, closed loop"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'tiny' runs in seconds, for the self-test")
    parser.add_argument("--inject-wrong-expectation", action="store_true",
                        help="append an operation whose expectation is wrong (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "heislab" / "cli.py").is_file():
        print(f"error: no heislab source tree at {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: the running command is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.signal(signal.SIGALRM, _alarm)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    client = Client(workdir)
    try:
        setups = [set_up(args.workload, args.seed, args.size, client)
                  for _ in range(SETUPS if args.trace == 0 else 1)]
        workload = setups[-1][0]
        if args.inject_wrong_expectation:
            workload.ops.append(workloads.wrong_expectation())
        if args.trace:
            metrics, attempted, failures, detail = traced(workload, client)
        else:
            metrics, attempted, failures, detail = measure(workload, client, args.seconds)
            metrics["setup_s"] = statistics.median(t for _, t in setups)
            if workload.probes:
                detail["known_defect_probes"] = probe(workload, client)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    units = END_TO_END if args.trace == 0 else layer_units()
    detail.update(failed_frac=len(failures) / attempted, failures=failures[:20])
    if args.trace == 0:
        detail["unbounded_metrics"] = {name: {"value": metrics[name], "unit": unit}
                                       for name, unit in UNBOUNDED.items()}
    probes = detail.get("known_defect_probes")
    if probes:
        detail["failed_frac_with_probes"] = ((len(failures) + probes["failed"]) /
                                             (attempted + probes["attempted"]))
    print(json.dumps({"provenance": provenance(args), "detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
