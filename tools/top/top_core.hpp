#pragma once

// Parsing and rendering core of mmhand_top, split out as a static
// library so tests can drive it on synthetic streams — torn tails from
// killed writers, interior corruption, tail-latency attribution —
// without spawning the CLI.  Its loaders are the one reader behind the
// tools: mmhand_top, every mmhand_report input and mmhand_lint's inputs
// load through them.
//
// The JSONL input is whatever the telemetry sampler streams via
// MMHAND_TELEMETRY's out= path; since a closing FrameScope appends
// per-frame records (kind "frame") to the same stream, the parser and
// the views here cover both record kinds.

#include <cstddef>
#include <string>
#include <vector>

#include "mmhand/common/json.hpp"

namespace mmhand::top {

struct ParsedStream {
  std::vector<json::Value> records;  ///< parsed JSONL objects, in order
  std::size_t bad_lines = 0;  ///< interior lines that failed to parse
  bool torn_tail = false;     ///< unterminated final line failed to parse
};

/// Splits a JSONL capture into parsed records.  A *final* line with no
/// trailing newline that fails to parse is the benign signature of a
/// writer killed mid-record: it sets `torn_tail` and is skipped.  An
/// unparseable line anywhere else (or a newline-terminated bad tail)
/// indicates real corruption and counts in `bad_lines`.
ParsedStream parse_jsonl(const std::string& text);

/// Reads `path` whole.  False (with `*error`) when it cannot be read.
bool load_text(const std::string& path, std::string* text,
               std::string* error);

/// Reads `path` and parses it with parse_jsonl's torn-tail rule.  False
/// (with `*error`) only when the file cannot be read.
bool load_jsonl(const std::string& path, ParsedStream* out,
                std::string* error);

/// Reads `path` and parses it as one JSON document.  False (with
/// `*error`) when the file cannot be read or does not parse.
bool load_json(const std::string& path, json::Value* out,
               std::string* error);

/// Renders the newest `last` sampler intervals (the classic top view):
/// per-stage rates and windowed percentiles with a p95 sparkline,
/// counter rates, fault activity, budget breaches.  `source` labels the
/// header.  Returns "" when the stream has no telemetry intervals.
std::string render_intervals(const ParsedStream& stream,
                             const std::string& source, std::size_t last);

/// Renders the serving-plane view: serve/* counters with window rates,
/// the serve gauges (live sessions, queue depth, inflight, degradation
/// tier by name), and the serve/* latency histograms — the cross-session
/// e2e plus the bounded per-session slots — with a p95 sparkline.
/// Returns "" when the window carries no serve/* records at all (the
/// stream came from a non-serving run).
std::string render_serve(const ParsedStream& stream,
                         const std::string& source, std::size_t last);

/// Renders tail-latency attribution over the per-frame records
/// (kind "frame"): per label, total-latency p50/p95/p99 plus which
/// stage dominates the frames at or beyond p95 — the "why are the slow
/// frames slow" view.  Returns "" when the stream has no frame records.
std::string render_tail(const ParsedStream& stream,
                        const std::string& source);

}  // namespace mmhand::top
