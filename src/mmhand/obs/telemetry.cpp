#include "mmhand/obs/telemetry.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "mmhand/common/clock.hpp"
#include "mmhand/common/io_safe.hpp"
#include "mmhand/common/ring.hpp"
#include "mmhand/fault/fault.hpp"
#include "mmhand/obs/budget.hpp"
#include "mmhand/obs/log.hpp"
#include "mmhand/obs/metrics.hpp"
#include "mmhand/obs/runlog.hpp"

namespace mmhand::obs {

namespace {

using detail::json_escape;
using detail::json_number;

/// True once set_telemetry has constructed the sampler; lets the atexit
/// path bail without instantiating the static below during shutdown.
std::atomic<bool> g_active{false};

struct Sampler;
std::string tick_locked(Sampler& s);

struct Sampler {
  std::mutex mu;
  std::condition_variable cv;
  std::thread worker;
  bool started = false;  ///< a configuration is installed
  bool running = false;  ///< the worker thread should keep looping
  TelemetryConfig config;
  BudgetSet budgets;
  bool have_budgets = false;
  io_safe::LineWriter out;
  RingBuffer<std::string> ring{512};
  std::uint64_t seq = 0;
  std::uint64_t breach_total = 0;
  std::int64_t last_t_ns = 0;
  std::map<std::string, std::int64_t> prev_counters;
  std::map<std::string, HistogramSnapshot> prev_hists;
  std::array<std::uint64_t, fault::kNumKinds> prev_faults{};

  /// This static is constructed after the obs atexit hook registers, so
  /// it is destroyed first — the worker must be joined here, not only
  /// in stop_telemetry (a joinable thread's destructor terminates).
  ~Sampler() {
    g_active.store(false, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(mu);
      if (!started) return;
      running = false;
    }
    cv.notify_all();
    if (worker.joinable()) worker.join();
    std::lock_guard<std::mutex> lk(mu);
    tick_locked(*this);  // final interval: flushed, not lost
    started = false;
    out.close();
  }
};

Sampler& sampler() {
  static Sampler s;
  return s;
}

void emit_locked(Sampler& s, const std::string& line) {
  s.ring.push(line);
  if (s.out.is_open() && !s.out.append(line))
    MMHAND_WARN("telemetry: append to %s failed", s.out.path().c_str());
}

/// OpenMetrics sample value: the spec's NaN/+Inf/-Inf tokens for
/// non-finite values (a gauge may hold a diverged loss), %.9g otherwise.
std::string om_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return json_number(v);
}

/// Rewrites the OpenMetrics mirror from lifetime registry state (write
/// to a temp sibling + rename, so scrapers never see a partial file).
void write_openmetrics_locked(const Sampler& s, const MetricsSample& ms) {
  const std::string& path = s.config.openmetrics_path;
  const std::string tmp = path + ".tmp";
  std::ofstream f(tmp, std::ios::trunc);
  if (!f) {
    MMHAND_WARN("telemetry: cannot write OpenMetrics file %s", tmp.c_str());
    return;
  }
  const auto label = [](const std::string& name) {
    std::string out;
    for (const char c : name) {
      if (c == '\\' || c == '"') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out.push_back(c);
    }
    return out;
  };
  f << "# TYPE mmhand_events counter\n"
    << "# HELP mmhand_events Lifetime event counts from the mmhand "
       "metrics registry.\n";
  for (const auto& [name, v] : ms.counters)
    f << "mmhand_events_total{name=\"" << label(name) << "\"} " << v << "\n";
  f << "# TYPE mmhand_gauge gauge\n"
    << "# HELP mmhand_gauge Last-write-wins scalars (loss, lr, ...).\n";
  for (const auto& [name, v] : ms.gauges)
    f << "mmhand_gauge{name=\"" << label(name) << "\"} " << om_number(v)
      << "\n";
  f << "# TYPE mmhand_stage_latency_us summary\n"
    << "# HELP mmhand_stage_latency_us Lifetime per-stage latency "
       "distribution in microseconds.\n";
  for (const auto& [name, snap] : ms.histograms) {
    const HistogramStats st = snapshot_stats(snap);
    const std::string l = label(name);
    f << "mmhand_stage_latency_us{name=\"" << l << "\",quantile=\"0.5\"} "
      << om_number(st.p50) << "\n"
      << "mmhand_stage_latency_us{name=\"" << l << "\",quantile=\"0.95\"} "
      << om_number(st.p95) << "\n"
      << "mmhand_stage_latency_us{name=\"" << l << "\",quantile=\"0.99\"} "
      << om_number(st.p99) << "\n"
      << "mmhand_stage_latency_us_count{name=\"" << l << "\"} " << st.count
      << "\n"
      << "mmhand_stage_latency_us_sum{name=\"" << l << "\"} "
      << om_number(st.sum) << "\n";
  }
  f << "# TYPE mmhand_fault_injected counter\n"
    << "# HELP mmhand_fault_injected Faults injected per kind "
       "(MMHAND_FAULT).\n";
  for (int k = 0; k < fault::kNumKinds; ++k) {
    const auto kind = static_cast<fault::Kind>(k);
    const std::uint64_t n = fault::injected_count(kind);
    if (n > 0)
      f << "mmhand_fault_injected_total{kind=\"" << fault::kind_name(kind)
        << "\"} " << n << "\n";
  }
  f << "# TYPE mmhand_budget_breaches counter\n"
    << "# HELP mmhand_budget_breaches Latency-budget breaches across all "
       "telemetry intervals.\n"
    << "mmhand_budget_breaches_total " << s.breach_total << "\n";
  f << "# TYPE mmhand_telemetry_intervals counter\n"
    << "# HELP mmhand_telemetry_intervals Telemetry intervals emitted.\n"
    << "mmhand_telemetry_intervals_total " << s.seq << "\n";
  f << "# EOF\n";
  f.flush();
  if (!f) {
    MMHAND_WARN("telemetry: short write on %s", tmp.c_str());
    return;
  }
  f.close();
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    MMHAND_WARN("telemetry: cannot publish %s", path.c_str());
}

/// One sampling interval: snapshot, window, judge budgets, emit.
// NOLINTNEXTLINE(misc-use-internal-linkage): declared above Sampler
std::string tick_locked(Sampler& s) {
  const std::int64_t t_ns = detail::now_ns();
  const double t_ms = static_cast<double>(t_ns) / 1e6;
  const double dt_ms = s.last_t_ns == 0
                           ? t_ms
                           : static_cast<double>(t_ns - s.last_t_ns) / 1e6;
  s.last_t_ns = t_ns;
  ++s.seq;

  const MetricsSample ms = sample_metrics();
  std::vector<BudgetBreach> breaches;

  std::ostringstream os;
  os << "{\"kind\": \"telemetry\", \"seq\": " << s.seq
     << ", \"t_ms\": " << json_number(t_ms)
     << ", \"dt_ms\": " << json_number(dt_ms);

  os << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, total] : ms.counters) {
    const auto it = s.prev_counters.find(name);
    const std::int64_t delta =
        total - (it == s.prev_counters.end() ? 0 : it->second);
    s.prev_counters[name] = total;
    os << (first ? "" : ", ") << '"' << json_escape(name)
       << "\": {\"total\": " << total << ", \"delta\": " << delta << "}";
    first = false;
  }
  os << "}";

  os << ", \"gauges\": {";
  first = true;
  for (const auto& [name, v] : ms.gauges) {
    os << (first ? "" : ", ") << '"' << json_escape(name)
       << "\": " << json_number(v);
    first = false;
  }
  os << "}";

  // Stages: windowed latency stats over just this interval, from the
  // raw bucket diff.  Stages with no events this interval are omitted.
  os << ", \"stages\": {";
  first = true;
  for (const auto& [name, snap] : ms.histograms) {
    const auto it = s.prev_hists.find(name);
    const HistogramSnapshot delta =
        it == s.prev_hists.end() ? snap : snapshot_delta(snap, it->second);
    s.prev_hists[name] = snap;
    if (delta.count == 0) continue;
    const HistogramStats w = snapshot_stats(delta);
    os << (first ? "" : ", ") << '"' << json_escape(name)
       << "\": {\"count\": " << w.count
       << ", \"mean_us\": " << json_number(w.mean)
       << ", \"p50_us\": " << json_number(w.p50)
       << ", \"p95_us\": " << json_number(w.p95)
       << ", \"p99_us\": " << json_number(w.p99)
       << ", \"max_us\": " << json_number(w.max) << "}";
    first = false;
    if (s.have_budgets) {
      std::vector<BudgetBreach> b = s.budgets.check(name, w);
      breaches.insert(breaches.end(), b.begin(), b.end());
    }
  }
  os << "}";

  os << ", \"faults\": {";
  first = true;
  for (int k = 0; k < fault::kNumKinds; ++k) {
    const auto kind = static_cast<fault::Kind>(k);
    const std::uint64_t total = fault::injected_count(kind);
    const std::uint64_t delta = total - s.prev_faults[k];
    s.prev_faults[k] = total;
    if (total == 0) continue;
    os << (first ? "" : ", ") << '"' << fault::kind_name(kind)
       << "\": {\"total\": " << total << ", \"delta\": " << delta << "}";
    first = false;
  }
  os << "}";

  os << ", \"breaches\": [";
  for (std::size_t i = 0; i < breaches.size(); ++i) {
    const BudgetBreach& b = breaches[i];
    os << (i == 0 ? "" : ", ") << "{\"stage\": \"" << json_escape(b.stage)
       << "\", \"field\": \"" << b.field
       << "\", \"limit\": " << json_number(b.limit)
       << ", \"actual\": " << json_number(b.actual) << "}";
  }
  s.breach_total += breaches.size();
  if (!breaches.empty()) {
    static Counter& breach_counter = counter("obs/budget.breaches");
    breach_counter.add(static_cast<std::int64_t>(breaches.size()));
  }
  os << "], \"breach_total\": " << s.breach_total << "}";

  const std::string line = os.str();
  emit_locked(s, line);
  if (!s.config.openmetrics_path.empty()) write_openmetrics_locked(s, ms);
  return line;
}

void worker_loop() {
  Sampler& s = sampler();
  std::unique_lock<std::mutex> lk(s.mu);
  while (s.running) {
    s.cv.wait_for(lk, std::chrono::milliseconds(s.config.interval_ms),
                  [&s] { return !s.running; });
    if (!s.running) break;
    tick_locked(s);
  }
}

bool parse_int(const std::string& text, long lo, long hi, long* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

bool parse_telemetry_spec(const std::string& spec, TelemetryConfig* config,
                          std::string* error) {
  TelemetryConfig out;
  std::size_t pos = 0;
  bool first = true;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    long v = 0;
    if (first) {
      if (!parse_int(token, 1, 60000, &v)) {
        if (error != nullptr)
          *error = "telemetry spec: interval_ms must lead and be an "
                   "integer in [1, 60000] (grammar: <interval_ms>"
                   "[,out=PATH][,om=PATH][,budgets=PATH])";
        return false;
      }
      out.interval_ms = static_cast<int>(v);
      first = false;
    } else if (token.rfind("out=", 0) == 0) {
      out.out_path = token.substr(4);
    } else if (token.rfind("om=", 0) == 0) {
      out.openmetrics_path = token.substr(3);
    } else if (token.rfind("budgets=", 0) == 0) {
      out.budgets_path = token.substr(8);
    } else if (!token.empty()) {
      if (error != nullptr)
        *error = "telemetry spec: unknown key '" + token + "'";
      return false;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  *config = out;
  return true;
}

bool set_telemetry(const TelemetryConfig& config) {
  if (config.interval_ms < 0 || config.interval_ms > 60000) {
    MMHAND_WARN("telemetry: interval_ms %d outside [0, 60000]",
                config.interval_ms);
    return false;
  }
  stop_telemetry();

  // The registries the sampler reads must be constructed before the
  // sampler's static state so they are destroyed after it (and after
  // the worker is joined).
  detail::touch_metrics_registry();
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  s.config = config;
  s.ring.clear();
  s.seq = 0;
  s.breach_total = 0;
  s.last_t_ns = 0;
  s.prev_counters.clear();
  s.prev_hists.clear();
  s.prev_faults = {};
  s.have_budgets = false;
  if (!config.budgets_path.empty()) {
    std::string error;
    s.budgets = BudgetSet::from_file(config.budgets_path, &error);
    if (!error.empty())
      MMHAND_WARN("telemetry: %s (budgets disabled)", error.c_str());
    else
      s.have_budgets = true;
  }
  s.out.close();
  if (!config.out_path.empty() && !s.out.open(config.out_path))
    MMHAND_WARN("telemetry: cannot open %s (stream disabled)",
                config.out_path.c_str());

  const std::int64_t now_unix_ms = unix_time_ms();
  RunRecord start("telemetry_start");
  start.field("interval_ms", s.config.interval_ms)
      .field("budgets",
             s.have_budgets ? s.config.budgets_path.c_str() : "")
      .field("unix_ms", now_unix_ms)
      .field("utc", format_utc(now_unix_ms));
  emit_locked(s, start.json());

  s.started = true;
  g_active.store(true, std::memory_order_release);
  detail::set_mask_bit(detail::kMetricsBit, true);
  detail::set_mask_bit(detail::kTelemetryBit, true);
  if (s.config.interval_ms > 0) {
    s.running = true;
    s.worker = std::thread(worker_loop);
  }
  return true;
}

void stop_telemetry() {
  if (!g_active.load(std::memory_order_acquire)) return;
  Sampler& s = sampler();
  std::thread worker;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (!s.started) return;
    s.running = false;
    worker = std::move(s.worker);
  }
  s.cv.notify_all();
  if (worker.joinable()) worker.join();
  {
    std::lock_guard<std::mutex> lk(s.mu);
    tick_locked(s);  // final interval: nothing recorded after it is lost
    s.started = false;
    s.out.close();
  }
  g_active.store(false, std::memory_order_release);
  detail::set_mask_bit(detail::kTelemetryBit, false);
}

std::string telemetry_sample_now() {
  if (!g_active.load(std::memory_order_acquire)) return "";
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  if (!s.started) return "";
  return tick_locked(s);
}

std::uint64_t telemetry_intervals() {
  if (!g_active.load(std::memory_order_acquire)) return 0;
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.seq;
}

std::uint64_t telemetry_breach_total() {
  if (!g_active.load(std::memory_order_acquire)) return 0;
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.breach_total;
}

std::vector<std::string> telemetry_ring_tail(std::size_t max_records) {
  std::vector<std::string> out;
  if (!g_active.load(std::memory_order_acquire)) return out;
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  const std::size_t n = std::min(max_records, s.ring.size());
  out.reserve(n);
  for (std::size_t i = s.ring.size() - n; i < s.ring.size(); ++i)
    out.push_back(s.ring[i]);
  return out;
}

namespace detail {

void telemetry_emit_record(const std::string& line) {
  if (!g_active.load(std::memory_order_acquire)) return;
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  if (!s.started) return;
  emit_locked(s, line);
}

void telemetry_on_mask_init() {
  static std::once_flag once;
  std::call_once(once, [] {
    TelemetryConfig config;
    std::string error;
    if (!parse_telemetry_spec(telemetry_spec_raw(), &config, &error)) {
      MMHAND_WARN("MMHAND_TELEMETRY: %s", error.c_str());
      set_mask_bit(kTelemetryBit, false);
      return;
    }
    if (!set_telemetry(config)) set_mask_bit(kTelemetryBit, false);
  });
}

}  // namespace detail

}  // namespace mmhand::obs
