#include "mmhand/obs/runlog.hpp"

#include <cmath>
#include <cstdio>
#include <mutex>

#include "mmhand/common/io_safe.hpp"
#include "mmhand/obs/log.hpp"

namespace mmhand::obs {

namespace {

/// Serializes appends and guards the lazily-opened sink.  The torn-tail
/// repair and the append/flush discipline live in io_safe::LineWriter
/// (shared with the telemetry stream).
struct Sink {
  std::mutex mu;
  io_safe::LineWriter writer;  // guarded by mu
};

Sink& sink() {
  static Sink s;
  return s;
}

}  // namespace

namespace detail {

std::string json_number(double v) {
  if (std::isnan(v)) return "\"NaN\"";
  if (std::isinf(v)) return v > 0 ? "\"Inf\"" : "\"-Inf\"";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace detail

void set_run_log_enabled(bool on) {
  detail::set_mask_bit(detail::kRunLogBit, on);
}

void set_run_log_path(const std::string& path) {
  detail::set_run_log_path_raw(path);
  detail::set_mask_bit(detail::kRunLogBit, true);
}

std::string run_log_path() { return detail::run_log_path_raw(); }

RunRecord::RunRecord(const char* kind) {
  os_ << '{';
  field("kind", kind);
  field("t_ms", static_cast<double>(detail::now_ns()) / 1e6);
}

void RunRecord::key(const char* k) {
  if (!first_) os_ << ", ";
  first_ = false;
  os_ << '"' << detail::json_escape(k) << "\": ";
}

RunRecord& RunRecord::field(const char* k, double v) {
  key(k);
  os_ << detail::json_number(v);
  return *this;
}

RunRecord& RunRecord::field(const char* k, std::int64_t v) {
  key(k);
  os_ << v;
  return *this;
}

RunRecord& RunRecord::field(const char* k, bool v) {
  key(k);
  os_ << (v ? "true" : "false");
  return *this;
}

RunRecord& RunRecord::field(const char* k, const char* v) {
  key(k);
  os_ << '"' << detail::json_escape(v) << '"';
  return *this;
}

RunRecord& RunRecord::raw(const char* k, const std::string& json) {
  key(k);
  os_ << json;
  return *this;
}

std::string RunRecord::json() const { return os_.str() + "}"; }

void append_run_record(const RunRecord& record) {
  if (!runlog_enabled()) return;
  const std::string path = detail::run_log_path_raw();
  if (path.empty()) return;
  const std::string line = record.json();
  Sink& s = sink();
  std::lock_guard<std::mutex> lk(s.mu);
  if (!s.writer.is_open() || s.writer.path() != path) {
    std::uint64_t torn = 0;
    const bool opened = s.writer.open(path, &torn);
    if (torn > 0)
      MMHAND_WARN("run log %s had a torn final record; truncated %llu bytes",
                  path.c_str(), static_cast<unsigned long long>(torn));
    if (!opened) {
      MMHAND_WARN("cannot append run log to %s", path.c_str());
      return;
    }
  }
  s.writer.append(line);
}

void reset_run_log() {
  Sink& s = sink();
  std::lock_guard<std::mutex> lk(s.mu);
  s.writer.close();
}

}  // namespace mmhand::obs
