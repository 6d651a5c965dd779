#pragma once

// Thread-safe metrics registry: counters, gauges, and fixed-bucket
// latency histograms with percentile estimation.
//
// Hot-path cost model:
//   - disabled: callers gate on `metrics_enabled()` — one relaxed atomic
//     load, no allocation, no formatting;
//   - enabled: each metric is sharded per thread (round-robin onto
//     `detail::kShards` cache-line-aligned slots), so recording from
//     inside a `parallel_for` never serializes the pool.  Shards are
//     merged only at report time.
// Lookup by name (`counter("nn/gemm.calls")`) takes a registry mutex;
// call it once and cache the reference (e.g. in a function-local static).
// References stay valid for the life of the process; `reset_metrics()`
// zeroes values but never invalidates handles.
//
// Histograms use 64 geometric buckets (ratio sqrt(2)) from 1 upward, so
// they cover ~9 decades; span-fed histograms record microseconds.
// Percentiles interpolate linearly inside a bucket and are clamped to
// the observed [min, max], which makes the single-sample and all-equal
// cases exact.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "mmhand/obs/state.hpp"

namespace mmhand::obs {

/// True when metric recording is requested (`MMHAND_METRICS=<path>` or
/// `set_metrics_enabled(true)`).  One relaxed atomic load.
inline bool metrics_enabled() {
  return (detail::mask() & detail::kMetricsBit) != 0;
}

/// Runtime override; wins over the environment.
void set_metrics_enabled(bool on);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::int64_t delta) {
    slots_[detail::shard_id()].v.fetch_add(delta,
                                           std::memory_order_relaxed);
  }
  std::int64_t value() const;
  void reset();

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> v{0};
  };
  std::array<Slot, detail::kShards> slots_{};
};

/// Last-write-wins scalar (loss, learning rate, ...).
class Gauge {
 public:
  void set(double v) {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void reset() { set(0.0); }

 private:
  std::atomic<std::uint64_t> bits_{0};
};

struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct HistogramSnapshot;

/// Fixed-bucket distribution of non-negative values.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(double value);
  /// snapshot_stats(snapshot()).  All-zero when empty.
  HistogramStats stats() const;
  /// Raw merged bucket counts (the unit the telemetry sampler diffs
  /// between intervals for windowed percentiles).
  HistogramSnapshot snapshot() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_bits{0};
    std::atomic<std::uint64_t> min_bits{
        std::bit_cast<std::uint64_t>(std::numeric_limits<double>::max())};
    std::atomic<std::uint64_t> max_bits{
        std::bit_cast<std::uint64_t>(std::numeric_limits<double>::lowest())};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  };
  std::array<Shard, detail::kShards> shards_{};
};

/// Raw merged histogram state.  `min`/`max` are the lifetime extremes;
/// a windowed delta reconstructs its extremes from the occupied bucket
/// bounds (see `snapshot_delta`).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
};

/// `cur - prev`, elementwise on count/sum/buckets.  The window's
/// min/max are approximated by the bounds of its lowest and highest
/// occupied buckets (clamped to `cur`'s lifetime extremes), which keeps
/// the interpolated windowed percentiles inside the observed range.
HistogramSnapshot snapshot_delta(const HistogramSnapshot& cur,
                                 const HistogramSnapshot& prev);

/// Mean + interpolated p50/p95/p99 of any snapshot (full or windowed).
HistogramStats snapshot_stats(const HistogramSnapshot& s);

/// One pass over the registry: every metric's current value, sorted by
/// name (map order).  Relaxed reads — values racing with writers land
/// in this or the next sample, never torn.
struct MetricsSample {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};
MetricsSample sample_metrics();

/// Finds or creates a metric by name.  Takes the registry mutex; cache
/// the returned reference on hot paths.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/// All registered metrics as a JSON object
/// (`{"counters": {...}, "gauges": {...}, "histograms": {...}}`).
std::string metrics_json();

/// Writes `metrics_json()` to `path`; false (with a warning log) on I/O
/// failure.
bool write_metrics(const std::string& path);

/// Zeroes every registered metric (handles stay valid).
void reset_metrics();

namespace detail {
/// Forces the registry's static storage into existence (ordering
/// guarantee for the atexit dump).
void touch_metrics_registry();
}  // namespace detail

}  // namespace mmhand::obs
