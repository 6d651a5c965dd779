#include "mmhand/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "mmhand/obs/log.hpp"
#include "mmhand/obs/runlog.hpp"

namespace mmhand::obs {

namespace {

using detail::json_escape;
using detail::json_number;

/// Bucket i >= 1 covers [2^((i-1)/2), 2^(i/2)); bucket 0 catches
/// everything below 1 and the last bucket everything above ~2^31.
int bucket_index(double v) {
  if (!(v >= 1.0)) return 0;  // also routes NaN and negatives to bucket 0
  const int i = 1 + static_cast<int>(2.0 * std::log2(v));
  return std::min(i, Histogram::kBuckets - 1);
}

double bucket_lower(int i) {
  return i == 0 ? 0.0 : std::exp2((i - 1) / 2.0);
}

double bucket_upper(int i) { return std::exp2(i / 2.0); }

/// Relaxed CAS-accumulate for the atomic-double-as-bits pattern.
void atomic_double_add(std::atomic<std::uint64_t>& bits, double delta) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (!bits.compare_exchange_weak(
      cur, std::bit_cast<std::uint64_t>(std::bit_cast<double>(cur) + delta),
      std::memory_order_relaxed)) {
  }
}

void atomic_double_min(std::atomic<std::uint64_t>& bits, double v) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (v < std::bit_cast<double>(cur) &&
         !bits.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(v),
                                     std::memory_order_relaxed)) {
  }
}

void atomic_double_max(std::atomic<std::uint64_t>& bits, double v) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (v > std::bit_cast<double>(cur) &&
         !bits.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(v),
                                     std::memory_order_relaxed)) {
  }
}

struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Interpolated percentile (q in [0, 100]) of a merged snapshot.
double snapshot_percentile(const HistogramSnapshot& m, double q) {
  if (m.count == 0) return 0.0;
  const double target =
      std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(m.count);
  std::uint64_t cum = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (m.buckets[static_cast<std::size_t>(i)] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += m.buckets[static_cast<std::size_t>(i)];
    if (static_cast<double>(cum) >= target) {
      const double frac =
          (target - before) /
          static_cast<double>(m.buckets[static_cast<std::size_t>(i)]);
      const double lo = bucket_lower(i);
      const double hi = i == Histogram::kBuckets - 1 ? m.max
                                                     : bucket_upper(i);
      return std::clamp(lo + frac * (hi - lo), m.min, m.max);
    }
  }
  return m.max;
}

}  // namespace

void set_metrics_enabled(bool on) {
  detail::set_mask_bit(detail::kMetricsBit, on);
  if (on) detail::touch_metrics_registry();
}

std::int64_t Counter::value() const {
  std::int64_t total = 0;
  for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
}

void Histogram::record(double value) {
  Shard& shard = shards_[detail::shard_id()];
  shard.count.fetch_add(1, std::memory_order_relaxed);
  atomic_double_add(shard.sum_bits, value);
  atomic_double_min(shard.min_bits, value);
  atomic_double_max(shard.max_bits, value);
  shard.buckets[static_cast<std::size_t>(bucket_index(value))].fetch_add(
      1, std::memory_order_relaxed);
}

HistogramStats Histogram::stats() const {
  return snapshot_stats(snapshot());
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  double mn = std::numeric_limits<double>::max();
  double mx = std::numeric_limits<double>::lowest();
  for (const Shard& s : shards_) {
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum +=
        std::bit_cast<double>(s.sum_bits.load(std::memory_order_relaxed));
    mn = std::min(
        mn, std::bit_cast<double>(s.min_bits.load(std::memory_order_relaxed)));
    mx = std::max(
        mx, std::bit_cast<double>(s.max_bits.load(std::memory_order_relaxed)));
    for (int i = 0; i < kBuckets; ++i)
      out.buckets[static_cast<std::size_t>(i)] +=
          s.buckets[static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed);
  }
  if (out.count > 0) {
    out.min = mn;
    out.max = mx;
  }
  return out;
}

HistogramSnapshot snapshot_delta(const HistogramSnapshot& cur,
                                 const HistogramSnapshot& prev) {
  HistogramSnapshot d;
  d.count = cur.count >= prev.count ? cur.count - prev.count : 0;
  d.sum = cur.sum - prev.sum;
  int lo = -1, hi = -1;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const std::size_t b = static_cast<std::size_t>(i);
    d.buckets[b] =
        cur.buckets[b] >= prev.buckets[b] ? cur.buckets[b] - prev.buckets[b]
                                          : 0;
    if (d.buckets[b] > 0) {
      if (lo < 0) lo = i;
      hi = i;
    }
  }
  if (lo >= 0) {
    d.min = std::max(bucket_lower(lo), cur.min);
    d.max = hi == Histogram::kBuckets - 1 ? cur.max
                                          : std::min(bucket_upper(hi),
                                                     cur.max);
    d.max = std::max(d.max, d.min);
  }
  return d;
}

HistogramStats snapshot_stats(const HistogramSnapshot& s) {
  HistogramStats out;
  out.count = s.count;
  if (s.count == 0) return out;
  out.sum = s.sum;
  out.min = s.min;
  out.max = s.max;
  out.mean = s.sum / static_cast<double>(s.count);
  out.p50 = snapshot_percentile(s, 50.0);
  out.p95 = snapshot_percentile(s, 95.0);
  out.p99 = snapshot_percentile(s, 99.0);
  return out;
}

MetricsSample sample_metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  MetricsSample out;
  out.counters.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters)
    out.counters.emplace_back(name, c->value());
  out.gauges.reserve(r.gauges.size());
  for (const auto& [name, g] : r.gauges)
    out.gauges.emplace_back(name, g->value());
  out.histograms.reserve(r.histograms.size());
  for (const auto& [name, h] : r.histograms)
    out.histograms.emplace_back(name, h->snapshot());
  return out;
}

void Histogram::reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum_bits.store(0, std::memory_order_relaxed);
    s.min_bits.store(
        std::bit_cast<std::uint64_t>(std::numeric_limits<double>::max()),
        std::memory_order_relaxed);
    s.max_bits.store(
        std::bit_cast<std::uint64_t>(std::numeric_limits<double>::lowest()),
        std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

Counter& counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  auto& slot = r.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& gauge(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  auto& slot = r.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& histogram(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  auto& slot = r.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string metrics_json() {
  const MetricsSample sample = sample_metrics();
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : sample.counters) {
    os << (first ? "" : ",") << "\n    \"" << json_escape(name)
       << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : sample.gauges) {
    os << (first ? "" : ",") << "\n    \"" << json_escape(name)
       << "\": " << json_number(value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, snap] : sample.histograms) {
    const HistogramStats s = snapshot_stats(snap);
    os << (first ? "" : ",") << "\n    \"" << json_escape(name)
       << "\": {\"count\": " << s.count << ", \"sum\": " << json_number(s.sum)
       << ", \"min\": " << json_number(s.min)
       << ", \"max\": " << json_number(s.max)
       << ", \"mean\": " << json_number(s.mean)
       << ", \"p50\": " << json_number(s.p50)
       << ", \"p95\": " << json_number(s.p95)
       << ", \"p99\": " << json_number(s.p99) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

bool write_metrics(const std::string& path) {
  const std::string body = metrics_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    MMHAND_WARN("cannot write metrics to %s", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    MMHAND_WARN("writing metrics to %s failed", path.c_str());
    return false;
  }
  return true;
}

void reset_metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& [name, c] : r.counters) c->reset();
  for (auto& [name, g] : r.gauges) g->reset();
  for (auto& [name, h] : r.histograms) h->reset();
}

namespace detail {

void touch_metrics_registry() { (void)registry(); }

}  // namespace detail

}  // namespace mmhand::obs
