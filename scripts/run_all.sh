#!/usr/bin/env bash
# Full regeneration: build, test, and reproduce every table/figure.
# The first bench run trains the fold models into ./mmhand_cache (several
# minutes on one core); later runs load the cache.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

echo "===== static analysis ====="
cmake --build build --target mmhand_lint lint_headers
build/tools/mmhand_lint --root .
build/tools/mmhand_lint --root . --json > mmhand_lint.json
build/tools/mmhand_lint --root . --purity --json > mmhand_purity.json
build/tools/mmhand_lint --root . --purity

ctest --test-dir build 2>&1 | tee test_output.txt
for b in build/bench/bench_*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "===== $(basename "$b") ====="
  if [ "$(basename "$b")" = bench_fig26_latency ]; then
    # Capture a per-stage Chrome trace from the latency bench and
    # sanity-check the JSON (see README "Observability").
    MMHAND_TRACE=mmhand_trace.json "$b"
  else
    "$b"
  fi
done 2>&1 | tee bench_output.txt

echo "===== trace sanity check ====="
if command -v python3 > /dev/null; then
  python3 - <<'EOF'
import json
with open("mmhand_trace.json") as f:
    trace = json.load(f)
names = {e["name"] for e in trace["traceEvents"]}
required = {"radar/range_fft", "radar/doppler_fft", "radar/zoom_angle_fft",
            "pose/joint_regression", "mesh/reconstruct"}
missing = required - names
assert not missing, f"trace is missing spans: {sorted(missing)}"
print(f"mmhand_trace.json OK: {len(trace['traceEvents'])} events, "
      f"{len(names)} distinct spans")
EOF
else
  grep -q '"traceEvents"' mmhand_trace.json
  for span in radar/range_fft radar/doppler_fft radar/zoom_angle_fft \
              pose/joint_regression mesh/reconstruct; do
    grep -q "\"$span\"" mmhand_trace.json || {
      echo "trace missing span $span" >&2
      exit 1
    }
  done
  echo "mmhand_trace.json OK (grep check; python3 unavailable)"
fi

echo "===== run-log capture ====="
# Benches above reuse ./mmhand_cache, so force a fresh (fast-protocol)
# training run into a throwaway cache to exercise MMHAND_RUN_LOG.
runlog_cache="$(mktemp -d)"
trap 'rm -rf "$runlog_cache"' EXIT
rm -f mmhand_runlog.jsonl
MMHAND_RUN_LOG=mmhand_runlog.jsonl MMHAND_NUMERIC_CHECK=warn \
  MMHAND_METRICS=mmhand_metrics.json \
  build/examples/mmhand_cli train --fast --cache "$runlog_cache"
if command -v python3 > /dev/null; then
  python3 - <<'EOF'
import json
records = []
with open("mmhand_runlog.jsonl") as f:
    for line in f:
        if line.strip():
            records.append(json.loads(line))
assert records, "run log is empty"
assert records[0]["kind"] == "manifest", f"first record: {records[0]['kind']}"
epochs = [r for r in records if r["kind"] == "epoch"]
assert epochs, "run log has no epoch records"
assert all("grad_norm" in r and "params" in r for r in epochs)
print(f"mmhand_runlog.jsonl OK: {len(records)} records, "
      f"{len(epochs)} epochs, final loss {epochs[-1]['loss']:.4f}")
EOF
else
  head -n 1 mmhand_runlog.jsonl | grep -q '"kind": "manifest"'
  grep -q '"kind": "epoch"' mmhand_runlog.jsonl
  echo "mmhand_runlog.jsonl OK (grep check; python3 unavailable)"
fi

echo "===== purity check ====="
# Static closure walk plus the runtime interposer probe at 1 and 4
# threads (see scripts/check_purity.sh and DESIGN.md §12).
scripts/check_purity.sh build
build/tools/mmhand_purity_probe --json > mmhand_probe.json

echo "===== serving check ====="
# Seeded chaos soak (32 sessions, churn+burst+stall, 2x overload),
# 40x overload shedding under both policies, drained-server bitwise
# parity at 1 and 4 threads, and a SIGKILL flight-ring render
# (see scripts/check_serve.sh and DESIGN.md §13).
scripts/check_serve.sh build
# Keep one soak + parity report for the merged markdown below.
build/tools/mmhand_soak soak --sessions 8 --overload 2 --seconds 1.0 \
  --json mmhand_soak.json
build/tools/mmhand_soak parity --threads 4 --json mmhand_parity.json

echo "===== merged report ====="
build/tools/mmhand_report --runlog mmhand_runlog.jsonl \
  --metrics mmhand_metrics.json --bench BENCH_throughput.json \
  --bench BENCH_serve.json \
  --serve mmhand_soak.json --serve mmhand_parity.json \
  --lint mmhand_lint.json --purity mmhand_purity.json \
  --probe mmhand_probe.json --history bench/history.jsonl -o mmhand_report.md

echo "===== telemetry check ====="
# Sampler stream + OpenMetrics export + SIGKILL-survivable flight ring
# (see scripts/check_telemetry.sh and README "Observability").
scripts/check_telemetry.sh build

echo "===== profiling check ====="
# Flow-linked Chrome trace at 4 threads (one frame record per anchor) and
# MMHAND_PMU graceful clock-only degradation + roofline report
# (see scripts/check_prof.sh).
scripts/check_prof.sh build

echo "===== crash recovery check ====="
# Kill a checkpointed fast training mid-epoch and require the resumed run
# to reproduce the uninterrupted fold models bit-for-bit.
scripts/check_recovery.sh build

echo "===== bench regression check (report-only) ====="
if command -v python3 > /dev/null; then
  python3 scripts/check_bench.py --append-history bench/history.jsonl \
    --note "run_all"
  python3 scripts/check_bench.py --current BENCH_serve.json \
    --baseline bench/baseline/BENCH_serve.baseline.json \
    --append-history bench/history.jsonl --note "run_all serve"
else
  echo "python3 unavailable; skipping check_bench"
fi
