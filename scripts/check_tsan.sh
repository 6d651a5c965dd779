#!/usr/bin/env bash
# Builds the threaded tests under ThreadSanitizer and runs them.
#
# The parallel execution layer (mmhand/common/parallel) promises data-race
# freedom: every parallel_for index is a whole sample or frame writing a
# disjoint output slice.  TSan verifies that promise on the pool itself
# and on its three callers (the conv and deconv per-sample forwards and
# the dataset builder's per-frame fan-out, all in test_parallel), plus
# the obs layer's concurrent metric recording (test_obs hammers one
# histogram from 8 threads while the telemetry sampler snapshots it).
# test_serve's stepper-thread tests (FeatureCache.*, FeaturePassRaceTest.*)
# gate the server's rule that a store its feature pass reads in place is
# not refilled before the pass ends.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
exec "$(dirname "$0")/check_sanitizer.sh" tsan "${1:-build-tsan}"
