#include "mmhand/obs/state.hpp"

#include <chrono>
#include <cstdlib>
#include <mutex>

#include "mmhand/obs/alloc.hpp"
#include "mmhand/obs/log.hpp"
#include "mmhand/obs/metrics.hpp"
#include "mmhand/obs/telemetry.hpp"
#include "mmhand/obs/trace.hpp"

namespace mmhand::obs::detail {

namespace {

std::mutex g_path_mu;
std::string g_trace_path;      // guarded by g_path_mu
std::string g_metrics_path;    // guarded by g_path_mu
std::string g_run_log_path;    // guarded by g_path_mu
std::string g_telemetry_spec;  // guarded by g_path_mu
std::string g_flight_spec;     // guarded by g_path_mu

std::atomic<unsigned> g_next_thread_id{0};

/// Dumps whatever was requested via the environment when the process
/// exits, so `MMHAND_TRACE=t.json ./bench` needs no code changes in the
/// binary being observed.
void at_exit_dump() {
  // The sampler thread must be joined before any static sink it reads
  // can be destroyed; stopping also flushes the final interval.
  stop_telemetry();
  if (!trace_path().empty() && tracing_enabled()) write_trace();
  if (!metrics_path().empty() && metrics_enabled())
    write_metrics(metrics_path());
}

}  // namespace

std::atomic<int>& mask_atomic() {
  static std::atomic<int> mask{-1};
  return mask;
}

int init_mask() {
  static std::once_flag once;
  std::call_once(once, [] {
    (void)now_ns();  // pin the time base before any span can run
    int m = 0;
    // Each sink's variable sets its mask bits and keeps its text: an
    // output path, or a spec the sink parses.  Telemetry implies
    // metrics: the sampler snapshots the registry, so the span
    // histograms it windows must actually be recording.
    const struct {
      const char* var;
      int bits;
      std::string* text;
    } sinks[] = {
        {"MMHAND_TRACE", kTraceBit, &g_trace_path},
        {"MMHAND_METRICS", kMetricsBit, &g_metrics_path},
        {"MMHAND_RUN_LOG", kRunLogBit, &g_run_log_path},
        {"MMHAND_TELEMETRY", kTelemetryBit | kMetricsBit, &g_telemetry_spec},
        {"MMHAND_FLIGHT", kFlightBit, &g_flight_spec},
    };
    for (const auto& sink : sinks)
      if (const char* v = std::getenv(sink.var); v != nullptr && *v) {
        m |= sink.bits;
        std::lock_guard<std::mutex> lk(g_path_mu);
        *sink.text = v;
      }
    // Allocation counting is orthogonal to the mask bits: it gates the
    // operator-new interposer in alloc.cpp, not an observability sink.
    if (const char* a = std::getenv("MMHAND_ALLOC_TRACK");
        a != nullptr && *a && *a != '0') {
      set_alloc_tracking(true);
    }
    // MMHAND_PMU is read by pmu.cpp so the perf_event plumbing (and its
    // lint confinement) stays in one TU; it implies metrics because the
    // per-stage counter aggregates land in the metrics registry.
    m |= pmu_mask_bits();
    // Frame contexts ride the thread pool's task-context slot; install
    // the propagation hooks unconditionally (they early-out while no
    // context is live) so runtime enablement needs no extra step.
    context_install_hooks();
    if (m != 0) {
      // Touch the sinks so their static state outlives this atexit hook
      // (handlers run LIFO: registered later -> runs earlier).
      touch_metrics_registry();
      std::atexit(at_exit_dump);
    }
    mask_atomic().store(m, std::memory_order_relaxed);
  });
  const int m = mask_atomic().load(std::memory_order_relaxed);
  // Subsystems with background state start outside the call_once body:
  // the sampler thread's own first obs call would otherwise deadlock
  // against this initialization.  Both hooks are internally one-shot.
  if ((m & kFlightBit) != 0) flight_on_mask_init();
  if ((m & kTelemetryBit) != 0) telemetry_on_mask_init();
  // Reload rather than returning the pre-hook snapshot: a hook that
  // rejects its spec clears its own bit, and the first caller must see
  // the subsystem as disabled, not just subsequent ones.
  return mask_atomic().load(std::memory_order_relaxed);
}

void set_mask_bit(int bit, bool on) {
  int m = mask();  // force env resolution first
  int desired;
  do {
    desired = on ? (m | bit) : (m & ~bit);
  } while (!mask_atomic().compare_exchange_weak(m, desired,
                                                std::memory_order_relaxed));
}

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

unsigned thread_id() {
  thread_local const unsigned id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace {

/// Path accessors resolve the environment first, then read or write
/// under `g_path_mu`.
std::string read_path(const std::string& value) {
  (void)mask();
  std::lock_guard<std::mutex> lk(g_path_mu);
  return value;
}

void write_path(std::string& slot, const std::string& value) {
  (void)mask();
  std::lock_guard<std::mutex> lk(g_path_mu);
  slot = value;
}

}  // namespace

std::string trace_path() { return read_path(g_trace_path); }
void set_trace_path(const std::string& path) {
  write_path(g_trace_path, path);
}
std::string metrics_path() { return read_path(g_metrics_path); }
std::string run_log_path_raw() { return read_path(g_run_log_path); }
void set_run_log_path_raw(const std::string& path) {
  write_path(g_run_log_path, path);
}
std::string telemetry_spec_raw() { return read_path(g_telemetry_spec); }
std::string flight_spec_raw() { return read_path(g_flight_spec); }

}  // namespace mmhand::obs::detail
