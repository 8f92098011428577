#!/usr/bin/env bash
# Exact PRAM instruction-count gate.  The PRAM simulator is a deterministic
# cost model, so FIG3 (bench_fig3_pram --smoke) and FIG-GIR (bench_gir_pram,
# full n = 4000) must reproduce the committed simulated time (critical-path
# instructions) for each P in bench/baseline/ exactly: tools/bench_compare.py
# fails on any per_op change in an "instructions" variant.  Registered as
# the ctest bench.pram_exact.
#
# Usage: tools/pram_exact_gate.sh BENCH_BIN_DIR REPORT_DIR
#   BENCH_BIN_DIR  directory holding bench_fig3_pram and bench_gir_pram
#   REPORT_DIR     where the fresh BENCH_*.json reports are written
set -euo pipefail

if [[ $# -ne 2 ]]; then
  sed -n '2,12p' "$0" >&2
  exit 2
fi
bin="$1"
out="$2"
root="$(cd "$(dirname "$0")/.." && pwd)"

mkdir -p "${out}"
"${bin}/bench_fig3_pram" --smoke --report="${out}/BENCH_fig3_pram.json" >/dev/null
"${bin}/bench_gir_pram" --report="${out}/BENCH_gir_pram.json" >/dev/null
for report in BENCH_fig3_pram.json BENCH_gir_pram.json; do
  python3 "${root}/tools/bench_compare.py" \
      "${root}/bench/baseline/${report}" "${out}/${report}"
done
