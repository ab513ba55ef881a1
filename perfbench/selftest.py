#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

    python3 perfbench/selftest.py

Runs every workload untraced on two seeds and traced on one, and checks:
- the result line has exactly the contract's keys, every metric named in
  BENCHMARK.json with its unit, and no failed operation on either seed;
  the detail line carries the unbounded metrics with their units;
- every listed per-layer function records calls on some workload, and the
  worker-thread spans of ``invert verify --threads 2`` hang under
  ``inversion.verify_inversion``;
- a deliberately wrong expectation is counted in ``failed`` and
  ``failed_frac`` instead of aborting the run;
- the known-defect probes are reported on ``cli-burst``;
- without a source tree the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def invoke(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(*args):
    proc = invoke(*args, "--size", "tiny", "--seconds", 1)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(map(str, args))} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)
        return condition

    expect(end_to_end == run.END_TO_END, "end_to_end metrics differ from run.END_TO_END")
    expect(per_layer == run.layer_units(), "per_layer metrics differ from run.layer_units()")

    calls = {layer: 0 for layer in run.LAYERS}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in (1, 2):
            info, result = result_of("--workload", workload, "--seed", seed, "--trace", 0)
            tag = f"{workload} seed {seed}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(result)}")
            expect({k: v["unit"] for k, v in result["metrics"].items()} == end_to_end,
                   f"{tag}: end-to-end names or units differ")
            expect(all(v["value"] > 0 for v in result["metrics"].values()),
                   f"{tag}: a metric is not positive")
            unbounded = info["detail"]["unbounded_metrics"]
            expect({k: v["unit"] for k, v in unbounded.items()} == run.UNBOUNDED
                   and all(v["value"] > 0 for v in unbounded.values()),
                   f"{tag}: detail-line metrics missing or not positive")
            expect(result["correct"] and result["failed"] == 0,
                   f"{tag}: failures {info['detail']['failures']}")
            if workload == "cli-burst":
                expect(info["detail"]["known_defect_probes"]["attempted"] == 2,
                       f"{tag}: known-defect probes not reported")
        info, result = result_of("--workload", workload, "--seed", 1, "--trace", 1)
        tag = f"{workload} traced"
        expect({k: v["unit"] for k, v in result["metrics"].items()} == per_layer,
               f"{tag}: per-layer names or units differ")
        expect(result["correct"], f"{tag}: failures {info['detail']['failures']}")
        for layer, row in info["detail"]["layers"].items():
            if layer in calls:
                calls[layer] += row.get("calls", 0)
        if workload == "certify":
            expect(info["detail"]["worker_span_parents"] == ["inversion.verify_inversion"],
                   f"{tag}: worker spans under {info['detail']['worker_span_parents']}")
    for layer, count in calls.items():
        expect(count > 0, f"{layer} records zero calls on every workload")

    info, result = result_of("--workload", "certify", "--seed", 1, "--trace", 0,
                             "--inject-wrong-expectation")
    detail = info["detail"]
    expect(result["failed"] == detail["passes"] and not result["correct"],
           f"wrong expectation not counted: failed {result['failed']}")
    expect(detail["failed_frac"] == result["failed"] / result["attempted"],
           "failed_frac is not failed / attempted")

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = invoke("--workload", "certify", "--seed", 1, "--seconds", 1, "--trace", 0,
                      cwd=bare, script=bare / HERE.name / "run.py")
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without a source tree the benchmark did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
