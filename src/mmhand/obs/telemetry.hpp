#pragma once

// Continuous telemetry: a background sampler that snapshots the metrics
// registry (counters, gauges, span histograms) and the fault-injection
// counters every interval, computes *windowed* per-stage latency stats
// (p50/p95/p99 of just that interval, by diffing raw histogram
// buckets), evaluates declarative latency budgets, and streams each
// interval as one JSONL record — optionally mirrored as an OpenMetrics
// text file for scrape-style consumers.  `tools/mmhand_top` tails the
// JSONL stream live.
//
// Enabled with
//
//   MMHAND_TELEMETRY=<interval_ms>[,out=PATH][,om=PATH][,budgets=PATH]
//
// or `set_telemetry()`.  Telemetry implies metrics (the sampler windows
// the span histograms, so they must be recording).  The sampler only
// *reads* instrumentation sinks and never touches the data they
// describe, so numeric outputs are bitwise identical with telemetry on
// or off (enforced by tests/test_telemetry.cpp); when telemetry is off
// the obs fast path stays the usual single relaxed mask load.
//
// The last 512 records are also retained in memory
// (`telemetry_ring_tail`) so tests and in-process consumers need no
// file I/O.  An `interval_ms` of 0 (programmatic only) starts no
// background thread: each `telemetry_sample_now()` call emits exactly
// one interval, which is how tests sample deterministically.

#include <cstdint>
#include <string>
#include <vector>

#include "mmhand/obs/state.hpp"

namespace mmhand::obs {

/// True when the telemetry sampler is on.  One relaxed atomic load.
inline bool telemetry_enabled() {
  return (detail::mask() & detail::kTelemetryBit) != 0;
}

struct TelemetryConfig {
  /// Sampling period.  0 = manual mode: no background thread; intervals
  /// are emitted only by `telemetry_sample_now()` (tests).
  int interval_ms = 100;
  std::string out_path;          ///< JSONL stream ("" = in-memory only)
  std::string openmetrics_path;  ///< OpenMetrics mirror ("" = off)
  std::string budgets_path;      ///< latency-budget JSON ("" = none)
};

/// Parses the `MMHAND_TELEMETRY` grammar (see the file comment).
bool parse_telemetry_spec(const std::string& spec, TelemetryConfig* config,
                          std::string* error);

/// (Re)starts the sampler with `config`.  Implies metrics.  False (with
/// a warning log) on a malformed config; budget/output-file problems
/// degrade gracefully (warning + feature off) instead of failing.
bool set_telemetry(const TelemetryConfig& config);

/// Stops the sampler: emits one final interval, joins the thread, and
/// closes the output.  Idempotent; also runs at process exit.
void stop_telemetry();

/// Forces one interval right now (any thread; serialized with the
/// sampler).  Returns the JSONL record, or "" when telemetry is off.
std::string telemetry_sample_now();

/// Intervals emitted since the sampler (re)started.
std::uint64_t telemetry_intervals();

/// Budget breaches accumulated across all intervals since (re)start.
std::uint64_t telemetry_breach_total();

/// The newest `max_records` JSONL records (oldest first).
std::vector<std::string> telemetry_ring_tail(std::size_t max_records);

namespace detail {
/// Appends one externally-built JSONL record (e.g. a per-frame record
/// from a closing `FrameScope`) to the telemetry stream: the in-memory
/// ring and, when configured, the out= file.  No-op while the sampler
/// is not started.
void telemetry_emit_record(const std::string& line);
}  // namespace detail

}  // namespace mmhand::obs
