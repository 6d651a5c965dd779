#!/usr/bin/env bash
# Hot-path purity gate, both halves (DESIGN.md §12):
#
#   1. static:  mmhand_lint --purity walks the call graph from every
#      MMHAND_REALTIME root and fails on any reachable heap allocation,
#      lock, throw, stream I/O, or blocking syscall that is not on the
#      audited allowlist (scripts/purity_allowlist.json).
#   2. runtime: mmhand_purity_probe runs warmed-up steady-state radar
#      frames, pose forwards and served frames (a manual-step server's
#      submits and feature passes, also of all-zero frames) with the
#      operator-new interposer (obs/alloc) counting and fails if any of
#      them allocates.  This closes the analyzer's blind spots — value
#      construction and function-pointer calls — and is run at 1 and 4
#      pool threads so per-worker scratch warm-up is covered both ways.
#
# Usage: scripts/check_purity.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}

[ -f "$BUILD_DIR/CMakeCache.txt" ] || cmake -B "$BUILD_DIR" -S . -G Ninja
cmake --build "$BUILD_DIR" -j --target mmhand_lint mmhand_purity_probe

echo "===== static purity (mmhand_lint --purity) ====="
"$BUILD_DIR"/tools/mmhand_lint --root . --purity

echo "===== runtime purity (interposer, 1 thread) ====="
MMHAND_THREADS=1 "$BUILD_DIR"/tools/mmhand_purity_probe

echo "===== runtime purity (interposer, 4 threads) ====="
MMHAND_THREADS=4 "$BUILD_DIR"/tools/mmhand_purity_probe

echo "Purity gate clean."
