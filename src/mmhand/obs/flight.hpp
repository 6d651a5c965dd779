#pragma once

// Crash flight recorder: a file-backed, lock-free ring of the last N
// span begin/end events and log lines per thread, so any death — a
// SIGSEGV, an abort(), a numeric-watchdog fatal, even an uncatchable
// SIGKILL under the fault harness — leaves a reconstructable record of
// the process's final moments.
//
// The rings hold event.hpp's 64-byte `Event` records — the same records
// and ring code as the trace — in an mmap(MAP_SHARED) file: every event
// lands in the page cache immediately, which the kernel flushes
// regardless of how the process dies.  The file's name table mirrors
// the process name table.  Catchable terminations additionally append a
// human-readable dump to `<ring>.dump.txt` from a signal/terminate
// handler; for SIGKILL the binary ring itself is the artifact, rendered
// after the fact by `mmhand_top --flight` or `flight_render_file`.
//
// Enabled with `MMHAND_FLIGHT=<path>[,slots=N]` or `set_flight()`.
// Recording an event is a handful of relaxed/release stores into the
// mapping — no lock, no allocation — and when the recorder is off a
// span pays only the obs layer's usual single relaxed mask load.
// Events never touch the data they describe, so numeric outputs are
// bitwise identical with the recorder on or off.

#include <string>

#include "mmhand/obs/state.hpp"

namespace mmhand::obs {

/// True when flight recording is on.  One relaxed atomic load.
inline bool flight_enabled() {
  return (detail::mask() & detail::kFlightBit) != 0;
}

struct FlightConfig {
  std::string path;            ///< ring file (binary, mmap-backed)
  int slots_per_thread = 256;  ///< events retained per thread ring
};

/// Parses the `MMHAND_FLIGHT` grammar: `<path>[,slots=N]`.
bool parse_flight_spec(const std::string& spec, FlightConfig* config,
                       std::string* error);

/// Maps (creating or reusing) the ring file, installs the crash
/// handlers, and enables recording.  False (with a warning log) when
/// the file cannot be created or mapped.
bool set_flight(const FlightConfig& config);

/// Disables recording.  The mapping stays alive (writers may still be
/// in flight) but no new events are recorded; the file keeps whatever
/// it held.
void stop_flight();

/// Ring file path of the active recorder ("" when off).
std::string flight_path();

/// Appends a rendered dump (with `reason`) to `<ring>.dump.txt`.
/// Called by the crash handlers and the numeric watchdog's fatal path;
/// safe to call manually.  False when no recorder is active.
bool flight_dump(const char* reason);

/// Renders a ring file as human-readable text: per-thread chronological
/// events plus an `in-flight:` line for every span begun but not ended
/// (the spans that were open when the process died).  On a malformed
/// file returns "" and sets `*error`.
std::string flight_render_file(const std::string& path, std::string* error);

namespace detail {
/// Records one truncated log line (wired into obs::logf).
void flight_note_log(const char* line);
}  // namespace detail

}  // namespace mmhand::obs
