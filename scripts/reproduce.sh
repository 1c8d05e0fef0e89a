#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite, run one study that
# writes every paper exhibit (report.txt, report.json and the CSVs), then
# the ablation, what-if and extension experiments, and leave the transcripts
# next to the sources.
#
# Usage: scripts/reproduce.sh [scale]   (default | paper | NxM probe counts,
# e.g. 600x150; default by default)
#
# The perf_* microbenchmarks and the end-to-end benchmark are not run: they
# time the code rather than reproduce the paper (scripts/bench_record.py
# records the benchmark).
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-default}"
OUT="reproduce-out"

# No -G: a build/ configured earlier keeps whatever generator it has.
cmake -B build -S .
cmake --build build -j "$(nproc 2>/dev/null || echo 2)"

ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt

./build/tools/cloudrtt study --scale "$SCALE" --out "$OUT" --quiet
echo "exhibits: $OUT/report.txt (and report.json, pings.csv, traceroutes.csv)"

# The experiments beyond the paper's exhibits; the ext_* harnesses run the
# same study as the command above.
export CLOUDRTT_SCALE="$SCALE"
: > bench_output.txt
for b in ablation_peering ablation_uplinks ablation_wired_lastmile whatif_5g \
         ext_interdc ext_paris ext_bgp ext_temporal ext_geolocation; do
  echo "### $b" | tee -a bench_output.txt
  "./build/bench/$b" 2>&1 | tee -a bench_output.txt
  echo | tee -a bench_output.txt
done

echo "done: test_output.txt, $OUT/ and bench_output.txt (scale $SCALE)"
