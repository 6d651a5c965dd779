// Observability layer: histogram percentile edge cases, thread safety of
// counters/spans under the pool, trace JSON validity, and — the invariant
// the instrumentation must never break — bitwise-identical numeric
// outputs with observability on vs off.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mmhand/common/json.hpp"
#include "mmhand/common/parallel.hpp"
#include "mmhand/common/rng.hpp"
#include "mmhand/nn/conv2d.hpp"
#include "mmhand/obs/obs.hpp"
#include "mmhand/radar/antenna_array.hpp"
#include "mmhand/radar/chirp_config.hpp"
#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/pipeline.hpp"
#include "mmhand/serve/server.hpp"
#include "mmhand/sim/dataset.hpp"

namespace mmhand {
namespace {

/// Runs `fn` with the pool pinned to `threads`, restoring the previous
/// setting afterwards.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  const int prev = num_threads();
  set_num_threads(threads);
  auto result = fn();
  set_num_threads(prev);
  return result;
}

/// Scoped metrics enable; restores the disabled state afterwards.
struct MetricsOn {
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(false); }
};

// ---------------------------------------------------------------------
// Histogram percentile edge cases.

TEST(ObsHistogram, EmptyIsAllZero) {
  obs::Histogram h;
  const obs::HistogramStats s = h.stats();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(ObsHistogram, SingleSampleIsExactAtEveryPercentile) {
  obs::Histogram h;
  h.record(123.5);
  const obs::HistogramStats s = h.stats();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 123.5);
  EXPECT_DOUBLE_EQ(s.max, 123.5);
  EXPECT_DOUBLE_EQ(s.mean, 123.5);
  EXPECT_DOUBLE_EQ(s.p50, 123.5);
  EXPECT_DOUBLE_EQ(s.p95, 123.5);
  EXPECT_DOUBLE_EQ(s.p99, 123.5);
}

TEST(ObsHistogram, AllEqualSamplesAreExact) {
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(42.0);
  const obs::HistogramStats s = h.stats();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 42.0);
  EXPECT_DOUBLE_EQ(s.p95, 42.0);
  EXPECT_DOUBLE_EQ(s.p99, 42.0);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
}

TEST(ObsHistogram, PercentilesAreMonotonicAndBracketed) {
  obs::Histogram h;
  for (int i = 1; i <= 10000; ++i) h.record(static_cast<double>(i));
  const obs::HistogramStats s = h.stats();
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p99, s.max);
  // Geometric buckets at ratio sqrt(2) bound the relative error.
  EXPECT_NEAR(s.p50, 5000.0, 5000.0 * 0.5);
  EXPECT_GT(s.p99, 8000.0);
}

TEST(ObsHistogram, SubUnitAndNegativeValuesLandInBucketZero) {
  obs::Histogram h;
  h.record(0.25);
  h.record(-3.0);
  const obs::HistogramStats s = h.stats();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.min, -3.0);
  EXPECT_DOUBLE_EQ(s.max, 0.25);
  EXPECT_LE(s.p99, 0.25);
}

// snapshot_delta across an intervening reset: the "previous" snapshot
// then has higher counts than the current one.  The telemetry sampler
// hits this when reset_metrics() runs mid-stream; the delta must clamp
// to empty-ish, never underflow to huge unsigned counts.
TEST(ObsHistogram, SnapshotDeltaAcrossResetClampsToZero) {
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(50.0);
  const obs::HistogramSnapshot before = h.snapshot();
  ASSERT_EQ(before.count, 100u);
  h.reset();
  h.record(25.0);
  const obs::HistogramSnapshot after = h.snapshot();
  ASSERT_EQ(after.count, 1u);

  const obs::HistogramSnapshot d = obs::snapshot_delta(after, before);
  // count clamps to 0 rather than wrapping to ~2^64.
  EXPECT_EQ(d.count, 0u);
  // Every bucket clamps as well: the 50 µs bucket went 100 -> 0.
  for (const std::uint64_t b : d.buckets) EXPECT_LE(b, 1u);
  // A clamped delta must stay renderable: stats on it cannot blow up.
  const obs::HistogramStats s = obs::snapshot_stats(d);
  EXPECT_EQ(s.count, 0u);
}

// The ordinary windowed path right after a reset: prev taken at the
// reset point, so the delta is exactly the new samples.
TEST(ObsHistogram, SnapshotDeltaFromPostResetBaselineIsExact) {
  obs::Histogram h;
  for (int i = 0; i < 10; ++i) h.record(100.0);
  h.reset();
  const obs::HistogramSnapshot base = h.snapshot();
  for (int i = 0; i < 5; ++i) h.record(200.0);
  const obs::HistogramSnapshot d = obs::snapshot_delta(h.snapshot(), base);
  EXPECT_EQ(d.count, 5u);
  const obs::HistogramStats s = obs::snapshot_stats(d);
  EXPECT_EQ(s.count, 5u);
  EXPECT_GT(s.p50, 100.0);
}

// ---------------------------------------------------------------------
// Concurrent recording from inside the pool.

TEST(ObsConcurrency, CounterFromParallelForIsExact) {
  MetricsOn on;
  obs::Counter& c = obs::counter("test/obs.concurrent_counter");
  c.reset();
  constexpr int kIters = 100000;
  with_threads(8, [&] {
    parallel_for(0, kIters, [&](std::int64_t) { c.add(1); });
    return 0;
  });
  EXPECT_EQ(c.value(), kIters);
}

TEST(ObsConcurrency, SpansFromParallelForAreAllRecorded) {
  MetricsOn on;
  obs::Histogram& h = obs::histogram("test/obs.concurrent_span");
  h.reset();
  constexpr int kIters = 5000;
  with_threads(8, [&] {
    parallel_for(0, kIters, [&](std::int64_t) { h.record(3.0); });
    return 0;
  });
  const obs::HistogramStats s = h.stats();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kIters));
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

TEST(ObsConcurrency, HistogramHammeredFromEightRawThreadsStaysExact) {
  // The telemetry sampler reads histograms while worker threads record
  // into them; this is the TSan target for that pairing.  Eight raw
  // threads (not the pool, which serializes whole regions)
  // each record a distinct value 10000 times while the main thread
  // concurrently snapshots stats.  Count and sum must come out exact —
  // every per-value sum here is integral, so floating-point accumulation
  // has no excuse — and every concurrent snapshot must be internally
  // monotone.
  MetricsOn on;
  obs::Histogram& h = obs::histogram("test/obs.hammer");
  h.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(static_cast<double>(t + 1));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  while (done.load(std::memory_order_relaxed) < kThreads) {
    const obs::HistogramStats s = h.stats();
    EXPECT_LE(s.p50, s.p95);
    EXPECT_LE(s.p95, s.p99);
    EXPECT_LE(s.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  }
  for (std::thread& w : writers) w.join();
  const obs::HistogramStats s = h.stats();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  // sum of t in 1..8, 10000 each: 10000 * 36.
  EXPECT_DOUBLE_EQ(s.sum, 360000.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(ObsConcurrency, SpanSitesFromEightThreadsCount) {
  MetricsOn on;
  static obs::SpanSite site{"test/obs.pool_span"};
  obs::Histogram& h = site.hist();
  h.reset();
  constexpr int kIters = 2000;
  with_threads(8, [&] {
    parallel_for(0, kIters, [&](std::int64_t) { obs::Span span(site); });
    return 0;
  });
  EXPECT_EQ(h.stats().count, static_cast<std::uint64_t>(kIters));
}

// ---------------------------------------------------------------------
// Trace JSON.

/// Minimal structural JSON validator: balanced braces/brackets outside
/// strings, and a final parse position at end of input.
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : text) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (ch == '\\')
        escaped = true;
      else if (ch == '"')
        in_string = false;
      continue;
    }
    switch (ch) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(ch);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty();
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(ObsTrace, WritesValidChromeTraceJson) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mmhand_test_trace.json")
          .string();
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  {
    MMHAND_SPAN("test/outer");
    MMHAND_SPAN("test/inner");
  }
  with_threads(4, [&] {
    parallel_for(0, 64, [&](std::int64_t) { MMHAND_SPAN("test/pooled"); });
    return 0;
  });
  obs::set_tracing_enabled(false);
  ASSERT_TRUE(obs::write_trace(path));

  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(json_balanced(text)) << text.substr(0, 200);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"test/outer\""), std::string::npos);
  EXPECT_NE(text.find("\"test/inner\""), std::string::npos);
  EXPECT_NE(text.find("\"test/pooled\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  obs::clear_trace();
  std::filesystem::remove(path);
}

TEST(ObsTrace, ClearDropsCapturedSpans) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mmhand_test_trace2.json")
          .string();
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  { MMHAND_SPAN("test/ephemeral"); }
  obs::clear_trace();
  { MMHAND_SPAN("test/survivor"); }
  obs::set_tracing_enabled(false);
  ASSERT_TRUE(obs::write_trace(path));
  const std::string text = slurp(path);
  EXPECT_EQ(text.find("\"test/ephemeral\""), std::string::npos);
  EXPECT_NE(text.find("\"test/survivor\""), std::string::npos);
  obs::clear_trace();
  std::filesystem::remove(path);
}

TEST(ObsTrace, WriteReportsFailureOnFullDevice) {
  // /dev/full accepts the open and fails every write with ENOSPC, which
  // surfaces at the flush in fclose.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  { MMHAND_SPAN("test/full_device"); }
  obs::set_tracing_enabled(false);
  EXPECT_FALSE(obs::write_trace("/dev/full"));
  obs::clear_trace();
}

// ---------------------------------------------------------------------
// Logger.

TEST(ObsLog, LevelGatesEvaluation) {
  const obs::LogLevel prev = obs::log_level();
  obs::set_log_level(obs::LogLevel::kSilent);
  int evaluated = 0;
  auto bump = [&] {
    ++evaluated;
    return 0;
  };
  MMHAND_WARN("should not evaluate %d", bump());
  MMHAND_INFO("should not evaluate %d", bump());
  MMHAND_DEBUG("should not evaluate %d", bump());
  EXPECT_EQ(evaluated, 0);
  obs::set_log_level(obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kDebug));
  obs::set_log_level(prev);
}

// ---------------------------------------------------------------------
// Determinism: observability must not perturb numeric outputs.

std::vector<float> run_process_frame() {
  radar::ChirpConfig chirp;
  chirp.noise_stddev = 0.0;
  const radar::AntennaArray array(chirp);
  const radar::IfSimulator sim(chirp, array);
  const radar::PipelineConfig pc;
  const radar::RadarPipeline pipe(chirp, array, pc);
  radar::Scene scene{
      {Vec3{0.05, 0.30, 0.02}, Vec3{0.0, 0.4, 0.0}, 1.0},
      {Vec3{-0.08, 0.45, -0.01}, Vec3{0.0, -0.2, 0.0}, 0.7},
  };
  Rng rng(11);
  const auto frame = sim.simulate_frame(scene, 0.0, rng);
  return pipe.process_frame(frame).data();
}

std::vector<float> run_conv() {
  Rng rng(42);
  nn::Conv2d conv(3, 8, 3, 1, 1, rng);
  const nn::Tensor x = nn::Tensor::randn({2, 3, 16, 16}, rng, 1.0);
  return conv.forward(x, /*training=*/false).vec();
}

/// One served window whose first frames' features a feature pass
/// cached (under its serve/frame_features frame scope) before the window
/// completed; returns the delivered pose.
std::vector<float> run_served_window() {
  radar::ChirpConfig chirp;
  chirp.chirps_per_frame = 4;
  chirp.samples_per_chirp = 16;
  radar::PipelineConfig pc;
  pc.cube.range_bins = 8;
  pc.cube.azimuth_bins = 6;
  pc.cube.elevation_bins = 2;
  sim::ScenarioConfig scenario;
  scenario.duration_s = 4 * chirp.frame_period_s;
  const sim::Recording recording =
      sim::DatasetBuilder(chirp, pc).record(scenario);
  pose::PoseNetConfig net;
  net.segment_frames = 2;
  net.sequence_segments = 2;
  net.velocity_bins = 4;
  net.range_bins = 8;
  net.angle_bins = 8;
  net.feature_dim = 24;
  net.lstm_hidden = 16;
  net.spacenet.stem_channels = 4;
  net.spacenet.block1_channels = 6;
  net.spacenet.block2_channels = 6;
  Rng rng(11);
  pose::HandJointRegressor model(net, rng);
  serve::Server::Options opts;
  opts.manual_step = true;
  serve::Server server(serve::ServeConfig{}, model, opts);
  const auto id = server.join().id;
  const int frames = net.frames_per_sample();
  for (int f = 0; f < frames; ++f) {
    server.submit(id, recording.frames[static_cast<std::size_t>(f)].cube);
    if (f < frames - 1) server.step();  // caches the frame's features
  }
  server.drain();
  std::vector<serve::WindowResult> results;
  server.poll(id, &results);
  EXPECT_EQ(results.size(), 1u);
  EXPECT_EQ(server.stats().frames_featured_in_batch, 1u);
  return results.empty() ? std::vector<float>{} : results[0].pose.vec();
}

template <typename Fn>
auto with_obs(bool on, Fn&& fn) {
  obs::set_tracing_enabled(on);
  obs::set_metrics_enabled(on);
  auto result = fn();
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);
  if (on) obs::clear_trace();
  return result;
}

TEST(ObsDeterminism, ProcessFrameBitwiseEqualWithTracingOnOff) {
  for (const int threads : {1, 4}) {
    const auto plain =
        with_threads(threads, [&] { return with_obs(false, run_process_frame); });
    const auto traced =
        with_threads(threads, [&] { return with_obs(true, run_process_frame); });
    ASSERT_EQ(plain.size(), traced.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
      ASSERT_EQ(plain[i], traced[i])
          << "cube cell " << i << " at " << threads << " threads";
  }
}

TEST(ObsDeterminism, Conv2dBitwiseEqualWithTracingOnOff) {
  for (const int threads : {1, 4}) {
    const auto plain =
        with_threads(threads, [&] { return with_obs(false, run_conv); });
    const auto traced =
        with_threads(threads, [&] { return with_obs(true, run_conv); });
    EXPECT_EQ(plain, traced) << "at " << threads << " threads";
  }
}

TEST(ObsDeterminism, ServedWindowWithCachedFeaturesBitwiseEqualOnOff) {
  for (const int threads : {1, 4}) {
    const auto plain = with_threads(
        threads, [&] { return with_obs(false, run_served_window); });
    const auto traced = with_threads(
        threads, [&] { return with_obs(true, run_served_window); });
    ASSERT_FALSE(plain.empty());
    EXPECT_EQ(plain, traced) << "at " << threads << " threads";
  }
}

// ---------------------------------------------------------------------
// Metrics JSON snapshot.

TEST(ObsMetrics, JsonSnapshotIsBalancedAndNamesMetrics) {
  MetricsOn on;
  obs::counter("test/obs.snapshot_counter").add(7);
  obs::gauge("test/obs.snapshot_gauge").set(1.5);
  obs::histogram("test/obs.snapshot_hist").record(10.0);
  // The trainer sets its loss gauge from the epoch loss, which can diverge.
  obs::Gauge& nan_gauge = obs::gauge("test/obs.snapshot_nan_gauge");
  nan_gauge.set(std::numeric_limits<double>::quiet_NaN());
  const std::string json = obs::metrics_json();
  nan_gauge.reset();
  EXPECT_TRUE(json_balanced(json)) << json.substr(0, 200);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test/obs.snapshot_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test/obs.snapshot_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test/obs.snapshot_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  std::string error;
  const json::Value doc = json::Value::parse(json, &error);
  ASSERT_TRUE(error.empty()) << error;
  const json::Value* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  const json::Value* nan_value = gauges->find("test/obs.snapshot_nan_gauge");
  ASSERT_NE(nan_value, nullptr);
  ASSERT_TRUE(nan_value->is_string());
  EXPECT_EQ(nan_value->as_string(), "NaN");
}

TEST(ObsMetrics, ResetZeroesButKeepsHandles) {
  MetricsOn on;
  obs::Counter& c = obs::counter("test/obs.reset_counter");
  c.add(5);
  obs::reset_metrics();
  EXPECT_EQ(c.value(), 0);
  c.add(2);
  EXPECT_EQ(c.value(), 2);
}

TEST(ObsMetrics, WriteReportsFailureOnFullDevice) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  MetricsOn on;
  obs::counter("test/obs.full_device_counter").add(1);
  EXPECT_FALSE(obs::write_metrics("/dev/full"));
}

// ---------------------------------------------------------------------
// One event store: the trace and the flight recorder render the same
// per-thread event records.

/// Closed-span counts by name from a written trace's `X` rows.
std::map<std::string, int> trace_span_counts(const std::string& text) {
  std::string error;
  const json::Value doc = json::Value::parse(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  std::map<std::string, int> counts;
  if (const json::Value* events = doc.find("traceEvents"))
    for (const json::Value& e : events->as_array())
      if (e.string_or("ph", "") == "X") ++counts[e.string_or("name", "")];
  return counts;
}

/// Closed-span counts by name from a flight render's begin/end lines,
/// paired per tid.
std::map<std::string, int> flight_span_counts(const std::string& rendered) {
  std::map<std::string, int> counts;
  std::map<unsigned, std::vector<std::string>> open;
  std::istringstream lines(rendered);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t at = line.find("] tid ");
    if (at == std::string::npos) continue;
    std::istringstream row(line.substr(at + 6));
    unsigned tid = 0;
    std::string what, name;
    row >> tid >> what >> name;
    if (what == "begin") {
      open[tid].push_back(name);
    } else if (what == "end" && !open[tid].empty()) {
      EXPECT_EQ(open[tid].back(), name);
      open[tid].pop_back();
      ++counts[name];
    }
  }
  return counts;
}

TEST(ObsEvents, TraceAndFlightRenderTheSameSpans) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string ring = (tmp / "mmhand_test_events.ring").string();
  const std::string trace = (tmp / "mmhand_test_events.json").string();
  std::filesystem::remove(ring);
  obs::FlightConfig fc;
  fc.path = ring;
  fc.slots_per_thread = 4096;
  obs::clear_trace();
  ASSERT_TRUE(obs::set_flight(fc));
  obs::set_tracing_enabled(true);
  with_threads(1, run_process_frame);
  obs::set_tracing_enabled(false);
  obs::stop_flight();
  ASSERT_TRUE(obs::write_trace(trace));

  std::string error;
  const std::string rendered = obs::flight_render_file(ring, &error);
  ASSERT_FALSE(rendered.empty()) << error;
  const std::map<std::string, int> traced = trace_span_counts(slurp(trace));
  EXPECT_EQ(traced.count("radar/process_frame"), 1u);
  EXPECT_EQ(traced, flight_span_counts(rendered));
  obs::clear_trace();
  std::filesystem::remove(ring);
  std::filesystem::remove(trace);
}

TEST(ObsTrace, WriteWhileRecordingParses) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mmhand_test_trace3.json")
          .string();
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  std::atomic<int> running{4};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 4000; ++i) {
        MMHAND_SPAN("test/concurrent.outer");
        { MMHAND_SPAN("test/concurrent.inner"); }
        std::this_thread::yield();
      }
      running.fetch_sub(1);
    });
  // Plain EXPECTs: the recording threads must be joined either way.
  for (int writes = 0; running.load() > 0 || writes < 3; ++writes) {
    EXPECT_TRUE(obs::write_trace(path));
    std::string error;
    json::Value::parse(slurp(path), &error);
    EXPECT_TRUE(error.empty()) << "write " << writes << ": " << error;
  }
  for (std::thread& t : threads) t.join();
  obs::set_tracing_enabled(false);
  obs::clear_trace();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mmhand
