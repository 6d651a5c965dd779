#!/usr/bin/env bash
# Static-analysis gate, exactly as the CI lint job runs it:
#
#   1. build tools/mmhand_lint and run it over src/ tests/ bench/ tools/
#   2. build the lint_headers target (every public header must compile
#      as its own translation unit)
#   3. run clang-tidy over src/mmhand/ when it is installed
#
# The purity gate (mmhand_lint --purity) lives in scripts/check_purity.sh,
# which CI's own purity job runs.
#
# Usage: scripts/check_lint.sh [build-dir]   (default: build)
# Configures the build dir first if needed, so this works from a fresh
# checkout.  Exit status is non-zero on any lint finding.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}

[ -f "$BUILD_DIR/CMakeCache.txt" ] || cmake -B "$BUILD_DIR" -S . -G Ninja
cmake --build "$BUILD_DIR" -j --target mmhand_lint lint_headers

echo "===== mmhand_lint ====="
"$BUILD_DIR"/tools/mmhand_lint --root .

echo "===== clang-tidy ====="
if command -v clang-tidy > /dev/null; then
  # shellcheck disable=SC2046
  clang-tidy --quiet -p "$BUILD_DIR" $(find src/mmhand -name '*.cpp' | sort)
else
  echo "clang-tidy not found; skipping (install clang-tidy for the full gate)"
fi

echo "Lint gate clean."
