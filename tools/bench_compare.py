#!/usr/bin/env python3
"""Diff BENCH_*.json reports against a committed baseline and flag regressions.

Usage:
  bench_compare.py [--threshold=0.15] [--warn-only] BASELINE CURRENT
  bench_compare.py --selftest

BASELINE and CURRENT are either two report files or two directories; in
directory mode every BENCH_*.json in CURRENT is matched to the same-named
file in BASELINE (unmatched files are reported but not fatal).  For every
variant present in both reports the relative change in per_op is printed;
a slowdown beyond the threshold (default +15%) is a REGRESSION and makes
the script exit 1 — unless --warn-only, which downgrades regressions to
warnings (for noisy CI machines where the baseline came from different
hardware).  Speedups never fail; a unit mismatch is reported and the
variant skipped.

Variants whose unit is "instructions" (the PRAM cost-model benches) are
deterministic counts and are compared exactly instead: they must reproduce
their baseline per_op in either direction, be present in both reports and
keep their unit.  Any difference is a MISMATCH and counts like a
regression.

--selftest exercises the comparator on fabricated reports: a 2x slowdown
must be flagged and a 5% wobble must not; an instruction count off by one,
or a vanished one, must be flagged.

Exit codes: 0 clean (or --warn-only), 1 regression found, 2 usage error.
"""

import json
import sys
from pathlib import Path

DEFAULT_THRESHOLD = 0.15
EXACT_UNIT = "instructions"


def load_variants(path):
    report = json.loads(Path(path).read_text())
    return report.get("bench", "?"), {
        v["name"]: v for v in report.get("variants", [])
    }


def is_exact(variant):
    return variant.get("unit") == EXACT_UNIT


def compare_reports(baseline_path, current_path, threshold):
    """Return (lines, regressions) comparing per_op of shared variants."""
    bench, baseline = load_variants(baseline_path)
    _, current = load_variants(current_path)
    lines = []
    regressions = []
    for name, cur in sorted(current.items()):
        base = baseline.get(name)
        if base is None:
            lines.append(f"  {bench}/{name}: new variant (no baseline)")
            if is_exact(cur):
                regressions.append(f"{bench}/{name}: no baseline count")
            continue
        if base.get("unit") != cur.get("unit"):
            lines.append(f"  {bench}/{name}: unit changed "
                         f"{base.get('unit')!r} -> {cur.get('unit')!r}, skipped")
            if is_exact(base):
                regressions.append(f"{bench}/{name}: unit changed")
            continue
        if is_exact(cur):
            if cur["per_op"] == base["per_op"]:
                lines.append(f"  {bench}/{name}: exact")
            else:
                lines.append(f"  {bench}/{name}: MISMATCH")
                regressions.append(f"{bench}/{name}: {base['per_op']:.17g} -> "
                                   f"{cur['per_op']:.17g} {cur['unit']}")
            continue
        if not base.get("per_op"):
            lines.append(f"  {bench}/{name}: baseline per_op is 0, skipped")
            continue
        change = cur["per_op"] / base["per_op"] - 1.0
        marker = ""
        if change > threshold:
            marker = "  REGRESSION"
            regressions.append(f"{bench}/{name}: {change:+.1%} "
                               f"({base['per_op']:.6g} -> {cur['per_op']:.6g} "
                               f"{cur['unit']})")
        lines.append(f"  {bench}/{name}: {change:+.1%}{marker}")
    for name in sorted(set(baseline) - set(current)):
        lines.append(f"  {bench}/{name}: variant disappeared from current run")
        if is_exact(baseline[name]):
            regressions.append(f"{bench}/{name}: count disappeared")
    return lines, regressions


def gather_pairs(baseline_arg, current_arg):
    baseline, current = Path(baseline_arg), Path(current_arg)
    if baseline.is_dir() != current.is_dir():
        print("bench_compare: BASELINE and CURRENT must both be files or both "
              "be directories", file=sys.stderr)
        sys.exit(2)
    if not baseline.is_dir():
        return [(baseline, current)]
    pairs = []
    for current_file in sorted(current.glob("BENCH_*.json")):
        baseline_file = baseline / current_file.name
        if baseline_file.exists():
            pairs.append((baseline_file, current_file))
        else:
            print(f"bench_compare: no baseline for {current_file.name}, skipped")
    if not pairs:
        print("bench_compare: no BENCH_*.json pairs to compare", file=sys.stderr)
        sys.exit(2)
    return pairs


def selftest():
    import tempfile

    def report(per_op_by_name, unit="ns"):
        variants = [{"name": name, "unit": unit, "samples": 3, "per_op": v,
                     "p50": v, "p90": v, "p99": v, "min": v, "max": v}
                    for name, v in per_op_by_name.items()]
        return json.dumps({"schema": "ir-bench-report", "version": 1,
                           "bench": "selftest", "machine": {}, "config": {},
                           "variants": variants})

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "base.json").write_text(report({"fast": 100.0, "steady": 100.0}))
        (tmp / "bad.json").write_text(report({"fast": 200.0, "steady": 100.0}))
        (tmp / "wobble.json").write_text(report({"fast": 105.0, "steady": 95.0}))

        _, regressions = compare_reports(tmp / "base.json", tmp / "bad.json",
                                         DEFAULT_THRESHOLD)
        if len(regressions) != 1 or "fast" not in regressions[0]:
            print(f"bench_compare: selftest FAIL: 2x slowdown not flagged "
                  f"exactly once: {regressions}", file=sys.stderr)
            sys.exit(1)
        _, regressions = compare_reports(tmp / "base.json", tmp / "wobble.json",
                                         DEFAULT_THRESHOLD)
        if regressions:
            print(f"bench_compare: selftest FAIL: 5% wobble flagged: "
                  f"{regressions}", file=sys.stderr)
            sys.exit(1)

        counts = {"P=1": 184600.0, "P=2": 93346.0}
        (tmp / "count.json").write_text(report(counts, EXACT_UNIT))
        (tmp / "same.json").write_text(report(counts, EXACT_UNIT))
        (tmp / "off.json").write_text(
            report({"P=1": 184600.0, "P=2": 93345.0}, EXACT_UNIT))
        (tmp / "short.json").write_text(report({"P=1": 184600.0}, EXACT_UNIT))
        for name, want in (("same", 0), ("off", 1), ("short", 1)):
            _, regressions = compare_reports(tmp / "count.json",
                                             tmp / f"{name}.json",
                                             DEFAULT_THRESHOLD)
            if len(regressions) != want:
                print(f"bench_compare: selftest FAIL: exact count check on {name} "
                      f"reported {regressions}, want {want}", file=sys.stderr)
                sys.exit(1)
    print("bench_compare: selftest OK (2x flagged, 5% wobble not; "
          "a one-instruction change and a lost count flagged)")


def main():
    threshold = DEFAULT_THRESHOLD
    warn_only = False
    positional = []
    for arg in sys.argv[1:]:
        if arg == "--selftest":
            selftest()
            return
        if arg.startswith("--threshold="):
            threshold = float(arg[len("--threshold="):])
        elif arg == "--warn-only":
            warn_only = True
        else:
            positional.append(arg)
    if len(positional) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    all_regressions = []
    for baseline_file, current_file in gather_pairs(*positional):
        print(f"bench_compare: {current_file.name} vs {baseline_file}")
        lines, regressions = compare_reports(baseline_file, current_file,
                                             threshold)
        print("\n".join(lines))
        all_regressions.extend(regressions)

    rule = f"beyond +{threshold:.0%}, or any {EXACT_UNIT} count change"
    if all_regressions:
        verb = "WARNING" if warn_only else "FAIL"
        print(f"bench_compare: {verb}: {len(all_regressions)} regression(s) "
              f"{rule}:", file=sys.stderr)
        for regression in all_regressions:
            print(f"  {regression}", file=sys.stderr)
        if not warn_only:
            sys.exit(1)
    else:
        print(f"bench_compare: OK (no per_op regression {rule})")


if __name__ == "__main__":
    main()
