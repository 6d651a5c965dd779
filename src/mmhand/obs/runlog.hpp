#pragma once

// Append-only JSONL run records for training and evaluation.
//
// A "run log" is a file of newline-delimited JSON objects: one manifest
// record at the start of every training run (seed, config, environment),
// one record per epoch (loss, learning-rate scale, gradient norm,
// per-parameter-group tensor stats, throughput), one record per
// evaluation (MPJPE, per-joint breakdown, PCK), and one record per
// numerical anomaly the watchdog reports.  Downstream tooling
// (`tools/mmhand_report.cpp`, ad-hoc scripts) parses the lines back.
//
// Enablement follows the rest of the obs layer:
//   - `MMHAND_RUN_LOG=<path>` in the environment, resolved lazily on
//     first use, or
//   - `set_run_log_path(path)` / `set_run_log_enabled(bool)` at runtime
//     (the setters win over the environment).
// With the run log off, `runlog_enabled()` is one relaxed atomic load
// and a branch; no record is ever built.  Records are formatted locally
// and appended under a mutex, so concurrent writers never interleave
// within a line.  Writing a record never touches the data it describes:
// training outputs are bitwise identical with the run log on or off
// (enforced by tests/test_runlog.cpp).

#include <cstdint>
#include <sstream>
#include <string>

#include "mmhand/obs/state.hpp"

namespace mmhand::obs {

/// True when run-record appends are requested.  One relaxed atomic load.
inline bool runlog_enabled() {
  return (detail::mask() & detail::kRunLogBit) != 0;
}

/// Runtime override; wins over the environment.  Enabling without a
/// configured path writes nothing.
void set_run_log_enabled(bool on);

/// Sets the output path and enables the run log.  An empty path disables
/// file output.
void set_run_log_path(const std::string& path);

/// Currently configured output path ("" when unset).
std::string run_log_path();

namespace detail {
/// JSON number formatting that stays parseable for non-finite values:
/// finite doubles use %.9g, NaN/±Inf become the strings "NaN"/"Inf"/
/// "-Inf" (legal JSON, and the report tool understands them).
std::string json_number(double v);
std::string json_escape(const std::string& s);
}  // namespace detail

/// Builder for one JSONL record.  Fields appear in insertion order; the
/// constructor stamps `"kind"` and `"t_ms"` (milliseconds since the obs
/// time base) so every record is self-describing and ordered.
class RunRecord {
 public:
  explicit RunRecord(const char* kind);

  RunRecord& field(const char* key, double v);
  RunRecord& field(const char* key, std::int64_t v);
  RunRecord& field(const char* key, int v) {
    return field(key, static_cast<std::int64_t>(v));
  }
  RunRecord& field(const char* key, std::size_t v) {
    return field(key, static_cast<std::int64_t>(v));
  }
  RunRecord& field(const char* key, bool v);
  RunRecord& field(const char* key, const char* v);
  RunRecord& field(const char* key, const std::string& v) {
    return field(key, v.c_str());
  }
  /// Splices a pre-built JSON value (object/array) verbatim.
  RunRecord& raw(const char* key, const std::string& json);

  /// The record as a single JSON object (no trailing newline).
  std::string json() const;

 private:
  void key(const char* k);
  std::ostringstream os_;
  bool first_ = true;
};

/// Appends one record line to the configured run log.  Thread-safe; the
/// file opens lazily in append mode and each line is flushed so external
/// watchers (tests, tail -f) see records immediately.  No-op when the
/// run log is disabled.
void append_run_record(const RunRecord& record);

/// Closes the current file handle (the next append reopens the
/// configured path).  Used by tests switching output paths.
void reset_run_log();

}  // namespace mmhand::obs
