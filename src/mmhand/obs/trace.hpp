#pragma once

// Scoped spans emitting Chrome trace-event JSON ("X" complete events,
// viewable in chrome://tracing or https://ui.perfetto.dev).
//
// Usage at a stage boundary:
//
//   { MMHAND_SPAN("radar/range_fft"); ...stage... }
//
// The macro creates a function-local static `SpanSite` (one registry
// resolution per call site, ever) and a scoped `Span`.  When both
// tracing and metrics are off, constructing a Span costs one relaxed
// atomic load and a branch — no clock read, no allocation, no
// formatting — so instrumentation can stay in release hot paths.  When
// tracing is on the span pushes a begin and an end `Event` into the
// thread's trace ring (event.hpp; the flight recorder's rings hold the
// same records); when metrics are on its duration (microseconds) feeds
// the histogram of the same name.  Spans never touch the data they
// time, so numeric outputs are bitwise identical with observability on
// or off.
//
// Tracing resolves lazily on first use from `MMHAND_TRACE=<path>` (the
// file is written by an atexit hook and by explicit `write_trace()`
// calls) and can be forced at runtime with `set_tracing_enabled()` +
// `set_trace_path()`.

#include <atomic>
#include <cstdint>
#include <string>

#include "mmhand/obs/state.hpp"

namespace mmhand::obs {

class Histogram;

/// True when span trace capture is on.  One relaxed atomic load.
inline bool tracing_enabled() {
  return (detail::mask() & detail::kTraceBit) != 0;
}

/// True when spans must be timed at all (tracing or metrics).
inline bool timing_enabled() { return detail::mask() != 0; }

/// Runtime override; wins over the environment.
void set_tracing_enabled(bool on);

/// Sets the file written by `write_trace()` and the atexit hook.
void set_trace_path(const std::string& path);

/// Writes all spans captured so far to the configured path (or `path`).
/// May be called repeatedly, also while other threads record; the file
/// is rewritten in full each time.  A thread's ring keeps its newest
/// 2^20 spans; older ones are overwritten, with a warning here.
/// Returns false (with a warning log) when no path is set or I/O fails.
bool write_trace();
bool write_trace(const std::string& path);

/// Discards captured spans (the rings stay reserved).  A span open
/// across the clear is dropped from later traces.
void clear_trace();

/// Per-call-site identity of a span: the name (a string literal — it is
/// stored by pointer), its process-wide name-table id (drawn on first
/// use; see event.hpp), and lazily resolved sink handles.
class SpanSite {
 public:
  /// `flow_target` marks sites whose trace events carry a Chrome-trace
  /// flow binding (`ph:"f"`) back to the live frame context — used by
  /// the pool-worker span so cross-thread children link to their frame.
  explicit SpanSite(const char* name, bool flow_target = false)
      : name_(name), flow_target_(flow_target) {}
  const char* name() const { return name_; }
  bool flow_target() const { return flow_target_; }
  /// Name-table id; kNoName once the table is full.
  std::uint32_t id();
  Histogram& hist();
  /// Lazily resolved per-site PMU counter handles (owned by pmu.cpp).
  std::atomic<void*>& pmu_cache() { return pmu_cache_; }

 private:
  const char* name_;
  bool flow_target_;
  std::atomic<std::uint32_t> id_{0};  ///< id + 1; 0 = not yet drawn
  std::atomic<Histogram*> hist_{nullptr};
  std::atomic<void*> pmu_cache_{nullptr};
};

namespace detail {
/// Pushes the span's begin event into the trace and/or flight ring.
void span_begin(SpanSite& site, std::int64_t t_ns, int mask);
void record_span(SpanSite& site, std::int64_t t0_ns, std::int64_t t1_ns,
                 int mask, const PmuReading& pmu_begin);
/// Reads the thread's PMU group again and adds the deltas from
/// `pmu_begin` to the site's `pmu/<stage>.*` counters (pmu.cpp).
void pmu_accumulate(SpanSite& site, const PmuReading& pmu_begin);
}  // namespace detail

/// RAII span; see the file comment for the cost model.
class Span {
 public:
  explicit Span(SpanSite& site) {
    const int m = detail::mask();
    if (m == 0) return;
    site_ = &site;
    mask_ = m;
    if ((m & detail::kPmuBit) != 0) pmu_ = detail::pmu_read();
    t0_ns_ = detail::now_ns();
    if ((m & (detail::kTraceBit | detail::kFlightBit)) != 0)
      detail::span_begin(site, t0_ns_, m);
  }
  ~Span() {
    if (site_ != nullptr)
      detail::record_span(*site_, t0_ns_, detail::now_ns(), mask_, pmu_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanSite* site_ = nullptr;
  int mask_ = 0;
  std::int64_t t0_ns_ = 0;
  detail::PmuReading pmu_;
};

}  // namespace mmhand::obs

#define MMHAND_OBS_CONCAT2_(a, b) a##b
#define MMHAND_OBS_CONCAT_(a, b) MMHAND_OBS_CONCAT2_(a, b)

/// Declares a scoped span covering the rest of the enclosing block.
#define MMHAND_SPAN(name_literal)                                \
  static ::mmhand::obs::SpanSite MMHAND_OBS_CONCAT_(             \
      mmhand_obs_site_, __LINE__){name_literal};                 \
  ::mmhand::obs::Span MMHAND_OBS_CONCAT_(mmhand_obs_span_,       \
                                         __LINE__){              \
      MMHAND_OBS_CONCAT_(mmhand_obs_site_, __LINE__)}
