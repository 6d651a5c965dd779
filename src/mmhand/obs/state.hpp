#pragma once

// Internal shared state of the observability layer — not part of the
// public API.  Holds the lazily-initialized enable mask (one relaxed
// atomic gates every disabled-path check), the process time base, and
// the per-thread shard index used by metrics and the event rings.

#include <atomic>
#include <cstdint>
#include <string>

namespace mmhand::obs::detail {

inline constexpr int kTraceBit = 1;
inline constexpr int kMetricsBit = 2;
inline constexpr int kRunLogBit = 4;
inline constexpr int kFlightBit = 8;
inline constexpr int kTelemetryBit = 16;
inline constexpr int kPmuBit = 32;

/// Number of metric shards.  Threads map onto shards round-robin; more
/// threads than shards only costs occasional cache-line sharing, never
/// correctness.
inline constexpr unsigned kShards = 16;

/// The enable mask; -1 until the environment has been consulted.
std::atomic<int>& mask_atomic();

/// Resolves the mask, reading MMHAND_TRACE / MMHAND_METRICS /
/// MMHAND_RUN_LOG exactly once per process.
int init_mask();

/// Current mask, lazily initialized.  The fast path when observability is
/// off is this one relaxed load plus a compare.
inline int mask() {
  int m = mask_atomic().load(std::memory_order_relaxed);
  if (m < 0) m = init_mask();
  return m;
}

void set_mask_bit(int bit, bool on);

/// Nanoseconds since the first observability call in this process.
std::int64_t now_ns();

/// Stable small integer id of the calling thread (assigned on first use).
unsigned thread_id();

inline unsigned shard_id() { return thread_id() % kShards; }

/// Output paths configured via environment or setters ("" when unset).
std::string trace_path();
void set_trace_path(const std::string& path);
std::string metrics_path();
std::string run_log_path_raw();
void set_run_log_path_raw(const std::string& path);

/// Raw MMHAND_TELEMETRY / MMHAND_FLIGHT spec strings ("" when unset).
/// Parsing lives in obs/telemetry and obs/flight; state only stores the
/// text so every environment read stays in this TU.
std::string telemetry_spec_raw();
std::string flight_spec_raw();

/// Implemented in telemetry.cpp / flight.cpp: start the sampler thread /
/// map the ring file when the corresponding mask bit resolved on.
/// Called outside the call_once body (idempotent, guarded internally).
void telemetry_on_mask_init();
void flight_on_mask_init();

/// One group read of the hardware counters attached to the calling
/// thread (implemented in pmu.cpp).  `ok` is false when PMU profiling is
/// off or `perf_event_open` is unavailable; values are raw cumulative
/// counts, meaningful only as begin/end deltas on the same thread.
struct PmuReading {
  bool ok = false;
  std::uint64_t v[5] = {0, 0, 0, 0, 0};
};
PmuReading pmu_read();

/// Resolves MMHAND_PMU (in pmu.cpp, the one sanctioned perf_event TU)
/// and returns the mask bits it implies: kPmuBit | kMetricsBit when
/// enabled, 0 otherwise.  Called once from init_mask.
int pmu_mask_bits();

/// Installs the thread-pool task-context hooks that propagate frame
/// contexts to workers (implemented in context.cpp; idempotent).
void context_install_hooks();

}  // namespace mmhand::obs::detail
