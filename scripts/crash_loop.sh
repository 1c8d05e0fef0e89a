#!/usr/bin/env bash
# Crash-loop gate for the streaming store: SIGKILL a checkpointed campaign
# at random points and resume it until it completes. The final dataset hash
# must be bit-identical to an uninterrupted same-seed run — any drift means
# a salvage, replay, or manifest bug — and the surviving store must fsck
# HEALTHY. Runs with mild measurement AND disk faults on, so the kills land
# on degraded stores too.
#
# Usage: crash_loop.sh <cloudrtt-binary> <seed> <threads> [workdir]
set -euo pipefail

CLI=${1:?usage: crash_loop.sh <cloudrtt-binary> <seed> <threads> [workdir]}
SEED=${2:?missing seed}
THREADS=${3:?missing threads}
WORK=${4:-$(mktemp -d)}
MAX_KILLS=${MAX_KILLS:-60}
# The gate is vacuous unless kills actually interrupt runs: completions that
# arrive before MIN_KILLS landed restart the loop on a fresh checkpoint.
MIN_KILLS=${MIN_KILLS:-3}
# SCALE=paper (or NxM probe counts) swaps the small fixed fleets for a
# --scale run: the full paper-scale fleet with a truncated campaign, so kills
# land on 115k-probe day batches without the full paper task volume.
SCALE=${SCALE:-}

if [ -n "$SCALE" ]; then
  FLEET_ARGS=(--scale "$SCALE" --no-atlas --days 2 --budget 1500)
else
  FLEET_ARGS=(--sc-probes 500 --atlas-probes 150 --days 3 --budget 1200)
fi
STUDY_ARGS=(study --seed "$SEED" --threads "$THREADS"
  "${FLEET_ARGS[@]}"
  --fault-profile mild --io-fault-profile mild
  --quiet --no-export --dataset-hash)

mkdir -p "$WORK"

base_start=$(date +%s%N)
baseline=$("$CLI" "${STUDY_ARGS[@]}" --out "$WORK/base" | grep '^dataset-hash')
base_ms=$(( ($(date +%s%N) - base_start) / 1000000 ))
[ "$base_ms" -gt 0 ] || base_ms=1
echo "baseline: $baseline (${base_ms}ms)"

ckpt="$WORK/ckpt"
rm -rf "$ckpt"
final=""
kills=0
for attempt in $(seq 1 "$MAX_KILLS"); do
  "$CLI" "${STUDY_ARGS[@]}" --out "$WORK/run" \
    --checkpoint-dir "$ckpt" --resume > "$WORK/run.log" 2>&1 &
  pid=$!
  # Kill at a random point inside the baseline's measured wall time, so the
  # window tracks machine speed: early kills tear world construction and
  # mid-day appends, late ones let an almost-finished resume complete and
  # end the loop (resumes run shorter than the baseline, so completion
  # stays reachable). While the kill quota is unmet, aim at the first
  # two-thirds of the run, where a kill is likelier to land.
  if [ "$kills" -lt "$MIN_KILLS" ]; then
    ms=$((RANDOM % (base_ms * 2 / 3 + 1)))
  else
    ms=$((RANDOM % base_ms))
  fi
  sleep "$((ms / 1000)).$(printf '%03d' $((ms % 1000)))"
  kill -9 "$pid" 2>/dev/null || true
  set +e
  wait "$pid"
  status=$?
  set -e
  if [ "$status" -eq 0 ]; then
    if [ "$kills" -lt "$MIN_KILLS" ]; then
      # Completed before enough kills landed to prove anything: start the
      # crash loop over on a fresh checkpoint.
      rm -rf "$ckpt"
      continue
    fi
    echo "completed after $kills kills"
    final=$(grep '^dataset-hash' "$WORK/run.log")
    break
  elif [ "$status" -ne 137 ]; then
    echo "run $attempt exited with unexpected status $status" >&2
    cat "$WORK/run.log" >&2
    exit 1
  fi
  kills=$((kills + 1))
done

if [ -z "$final" ]; then
  # Every attempt was killed first — finish uninterrupted off the surviving
  # checkpoint so slow machines still converge.
  "$CLI" "${STUDY_ARGS[@]}" --out "$WORK/run" \
    --checkpoint-dir "$ckpt" --resume > "$WORK/run.log" 2>&1
  echo "completed after $kills kills (final run uninterrupted)"
  final=$(grep '^dataset-hash' "$WORK/run.log")
fi

echo "resumed:  $final"
if [ "$baseline" != "$final" ]; then
  echo "FAIL: dataset hash drifted across the crash loop" >&2
  exit 1
fi

"$CLI" study --seed "$SEED" --checkpoint-dir "$ckpt" --fsck
echo "crash-loop gate passed (seed=$SEED threads=$THREADS)"
