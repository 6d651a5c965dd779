#!/usr/bin/env bash
# Profiling gate: proves the causal-tracing + PMU layer end to end.
#
# Pass 1 runs the drained-parity serve driver (`mmhand_soak parity`,
# 8 sessions) at 4 threads with tracing and the telemetry sampler
# attached, then feeds the Chrome trace to scripts/check_trace.py: every
# cross-thread worker span must bind back to its frame's flow anchor,
# and the JSONL stream must carry exactly one kind:"frame" record per
# anchor.  The bindings come from the conv per-sample `parallel_for`:
# the stacked serve batch fans the conv trunk out across the pool under
# each batch's frame scope.  Nothing else in a serve run fans out: a radar
# frame runs on its caller, and an offline predict run's batch of one
# stays on the calling thread.  The
# tail-attribution view (`mmhand_top --tail`) must render over those
# records.
#
# Pass 2 is the degradation story: MMHAND_PMU=1 must succeed whether or
# not the host lets us at perf_event_open (CI containers usually do
# not), and `mmhand_report --roofline` must render a per-stage table
# either way — with IPC columns when counters opened, with the
# clock-only note when they did not.  Unavailability is never an error.
#
# Usage: scripts/check_prof.sh [build-dir]   (default: build)
#
# Set PROF_ARTIFACTS=<dir> to keep the Chrome trace and roofline report
# after the run (CI uploads them); otherwise everything lives in a
# temporary directory and is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j --target mmhand_cli mmhand_soak mmhand_top \
  mmhand_report

CLI="$BUILD_DIR/examples/mmhand_cli"
SOAK="$BUILD_DIR/tools/mmhand_soak"
TOP="$BUILD_DIR/tools/mmhand_top"
REPORT="$BUILD_DIR/tools/mmhand_report"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "== pass 1: traced 4-thread serve run, flow + frame records =="
MMHAND_THREADS=4 \
MMHAND_TRACE="$WORK/trace.json" \
MMHAND_TELEMETRY="50,out=$WORK/tel.jsonl" \
  "$SOAK" parity --sessions 8 --threads 4

python3 scripts/check_trace.py "$WORK/trace.json" \
  --min-anchors 5 --min-bindings 4 --telemetry "$WORK/tel.jsonl"

"$TOP" "$WORK/tel.jsonl" --tail > "$WORK/tail.txt"
grep -q "frames" "$WORK/tail.txt"
grep -q "p95" "$WORK/tail.txt"
echo "tail attribution render ok"

echo "== pass 2: MMHAND_PMU=1 must degrade, never fail =="
MMHAND_PMU=1 \
MMHAND_METRICS="$WORK/metrics.json" \
  "$CLI" predict --fast --cache "$WORK/cache" --seconds 1.0 --repeat 5

"$REPORT" --metrics "$WORK/metrics.json" --roofline -o "$WORK/roofline.md"
grep -q "## Roofline" "$WORK/roofline.md"
if grep -q '"pmu/' "$WORK/metrics.json"; then
  grep -q "IPC" "$WORK/roofline.md"
  echo "roofline ok: hardware counters opened (IPC columns present)"
else
  grep -qi "clock-only" "$WORK/roofline.md"
  echo "roofline ok: perf_event unavailable, clock-only degradation"
fi

if [ -n "${PROF_ARTIFACTS:-}" ]; then
  mkdir -p "$PROF_ARTIFACTS"
  cp "$WORK/trace.json" "$WORK/tel.jsonl" "$WORK/tail.txt" \
     "$WORK/roofline.md" "$PROF_ARTIFACTS/"
  echo "artifacts kept in $PROF_ARTIFACTS"
fi

echo "Profiling check clean."
