#!/usr/bin/env python3
"""Harness self-test of the repository benchmark, at smoke length.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that:
  * a plain run prints every end-to-end metric exactly once, with its unit
    and a finite value, and exits 0 with correct = true;
  * a traced run does the same for every per-layer metric, and its Chrome
    trace passes tools/check_trace_json.py --validate;
  * a run with one deliberately corrupted answer counts it in `failed` and
    exits non-zero;
  * a held-out second seed runs clean.
Exits 0 when every check passes.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE_SECONDS = "3"
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, *extra):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", SMOKE_SECONDS, "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return done.returncode, lines, result, done.stderr


def check_sheet(label, specs, lines, result):
    """Every named metric exactly once, with its unit and a finite value."""
    if result is None:
        check(False, f"{label}: last line is a JSON result")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result has exactly correct/attempted/failed/metrics")
    metrics = result.get("metrics", {})
    check(set(metrics) == {s["name"] for s in specs},
          f"{label}: result names exactly the {len(specs)} metrics of BENCHMARK.json")
    for spec in specs:
        name = spec["name"]
        got = metrics.get(name, {})
        printed = [l for l in lines if l.split()[:2] == ["metric", name]]
        value = got.get("value")
        check(len(printed) == 1 and got.get("unit") == spec["unit"] and
              isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {name} printed once, unit {spec['unit']}, finite value ({value})")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        code, lines, result, err = run(workload, 101, 0)
        check(code == 0 and result is not None and result["correct"]
              and result["failed"] == 0 and result["attempted"] >= 1,
              f"{workload}: plain run exits 0 and is correct")
        check_sheet(f"{workload} plain", bench["end_to_end"], lines, result)
        check(any(l.startswith("host {") and '"nproc"' in l and '"IR_SIMD"' in l
                  for l in lines), f"{workload}: host facts printed")

        code, lines, result, err = run(workload, 101, 1)
        check(code == 0 and result is not None and result["correct"],
              f"{workload}: traced run exits 0 and is correct")
        check_sheet(f"{workload} traced", bench["per_layer"], lines, result)
        trace = ROOT / ".bench_build" / "traces" / f"{workload}-seed101.json"
        checker = ROOT / "tools" / "check_trace_json.py"
        if checker.exists():
            validated = subprocess.run([sys.executable, str(checker), "--validate", str(trace)],
                                       capture_output=True, text=True)
            check(validated.returncode == 0, f"{workload}: trace passes check_trace_json.py")
        check(any(l.startswith("self layer ") for l in lines),
              f"{workload}: self time per layer printed")

        code, lines, result, err = run(workload, 101, 0, "--corrupt", "3")
        check(code != 0 and result is not None and result["failed"] >= 1
              and not result["correct"],
              f"{workload}: a corrupted answer is counted and fails the run")

        code, lines, result, err = run(workload, 202, 0)
        check(code == 0 and result is not None and result["failed"] == 0,
              f"{workload}: held-out seed 202 runs clean")

    print(f"selftest: {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
