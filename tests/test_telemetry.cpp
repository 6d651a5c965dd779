// Continuous-telemetry subsystem: MMHAND_TELEMETRY/MMHAND_FLIGHT spec
// parsing, deterministic manual-mode sampling, windowed counter/stage
// deltas, budget breaches, OpenMetrics output shape, flight-recorder
// rendering (including crash persistence via a death test), and the
// contract everything hangs on — bitwise-identical pipeline outputs
// with telemetry on or off, at 1 and 4 threads.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "mmhand/common/json.hpp"
#include "mmhand/common/parallel.hpp"
#include "mmhand/common/rng.hpp"
#include "mmhand/obs/obs.hpp"
#include "mmhand/radar/antenna_array.hpp"
#include "mmhand/radar/chirp_config.hpp"
#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/pipeline.hpp"

namespace mmhand {
namespace {

namespace fs = std::filesystem;
using json::Value;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("mmhand_telemetry_" + name)).string();
}

/// Every test leaves the obs layer exactly as it found it: sampler off,
/// metrics off, registry empty (handles stay valid).
struct TelemetryGuard {
  TelemetryGuard() { obs::reset_metrics(); }
  ~TelemetryGuard() {
    obs::stop_telemetry();
    obs::stop_flight();
    obs::set_metrics_enabled(false);
    obs::reset_metrics();
  }
};

/// Parses the newest in-memory telemetry record, failing the test on a
/// malformed line.
Value newest_record() {
  const std::vector<std::string> tail = obs::telemetry_ring_tail(1);
  EXPECT_EQ(tail.size(), 1u);
  std::string err;
  Value v = Value::parse(tail.empty() ? "" : tail.back(), &err);
  EXPECT_TRUE(err.empty()) << err;
  return v;
}

/// Manual-mode sampler config: no thread, in-memory ring only.
obs::TelemetryConfig manual_config() {
  obs::TelemetryConfig config;
  config.interval_ms = 0;
  return config;
}

// ---------------------------------------------------------------------
// Spec parsing.

TEST(TelemetrySpec, ParsesFullGrammar) {
  obs::TelemetryConfig config;
  std::string error;
  ASSERT_TRUE(obs::parse_telemetry_spec(
      "250,out=/tmp/t.jsonl,om=/tmp/t.om,budgets=b.json", &config, &error))
      << error;
  EXPECT_EQ(config.interval_ms, 250);
  EXPECT_EQ(config.out_path, "/tmp/t.jsonl");
  EXPECT_EQ(config.openmetrics_path, "/tmp/t.om");
  EXPECT_EQ(config.budgets_path, "b.json");
}

TEST(TelemetrySpec, IntervalAloneSuffices) {
  obs::TelemetryConfig config;
  std::string error;
  ASSERT_TRUE(obs::parse_telemetry_spec("50", &config, &error)) << error;
  EXPECT_EQ(config.interval_ms, 50);
  EXPECT_TRUE(config.out_path.empty());
}

TEST(TelemetrySpec, RejectsMalformedSpecs) {
  obs::TelemetryConfig config;
  std::string error;
  for (const char* bad : {"", "abc", "0", "-5", "100000", "50,bogus=1",
                          "50,ring=64", "50,ring=1", "50,ring=abc"}) {
    error.clear();
    EXPECT_FALSE(obs::parse_telemetry_spec(bad, &config, &error))
        << "accepted: " << bad;
    EXPECT_FALSE(error.empty()) << "no diagnostic for: " << bad;
  }
}

TEST(FlightSpec, ParsesPathAndSlots) {
  obs::FlightConfig config;
  std::string error;
  ASSERT_TRUE(obs::parse_flight_spec("/tmp/f.ring,slots=128", &config,
                                     &error))
      << error;
  EXPECT_EQ(config.path, "/tmp/f.ring");
  EXPECT_EQ(config.slots_per_thread, 128);
  ASSERT_TRUE(obs::parse_flight_spec("ring.bin", &config, &error));
  EXPECT_EQ(config.path, "ring.bin");
}

TEST(FlightSpec, RejectsMalformedSpecs) {
  obs::FlightConfig config;
  std::string error;
  for (const char* bad : {"", "p,slots=1", "p,slots=abc", "p,bogus=3"}) {
    EXPECT_FALSE(obs::parse_flight_spec(bad, &config, &error))
        << "accepted: " << bad;
  }
}

// ---------------------------------------------------------------------
// Manual-mode sampling: deterministic intervals, windowed deltas.

TEST(TelemetryManual, EachSampleCallEmitsOneInterval) {
  TelemetryGuard guard;
  ASSERT_TRUE(obs::set_telemetry(manual_config()));
  EXPECT_TRUE(obs::telemetry_enabled());
  EXPECT_TRUE(obs::metrics_enabled()) << "telemetry must imply metrics";
  EXPECT_EQ(obs::telemetry_intervals(), 0u);
  EXPECT_FALSE(obs::telemetry_sample_now().empty());
  EXPECT_FALSE(obs::telemetry_sample_now().empty());
  EXPECT_EQ(obs::telemetry_intervals(), 2u);
  // The ring holds the manifest record plus one record per interval.
  const std::vector<std::string> tail = obs::telemetry_ring_tail(8);
  ASSERT_EQ(tail.size(), 3u);
  std::string err;
  const Value manifest = Value::parse(tail.front(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(manifest.string_or("kind", ""), "telemetry_start");
  const Value first = Value::parse(tail[1], &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(first.string_or("kind", ""), "telemetry");
  EXPECT_EQ(first.number_or("seq", -1), 1.0);
}

TEST(TelemetryManual, SampleReturnsEmptyWhenOff) {
  EXPECT_FALSE(obs::telemetry_enabled());
  EXPECT_TRUE(obs::telemetry_sample_now().empty());
  EXPECT_TRUE(obs::telemetry_ring_tail(4).empty());
}

TEST(TelemetryWindow, CounterDeltasCoverOnlyTheInterval) {
  TelemetryGuard guard;
  ASSERT_TRUE(obs::set_telemetry(manual_config()));
  obs::counter("test/tel.counter").add(5);
  obs::telemetry_sample_now();
  {
    const Value v = newest_record();
    const Value* c = v.find("counters");
    ASSERT_NE(c, nullptr);
    const Value* mine = c->find("test/tel.counter");
    ASSERT_NE(mine, nullptr);
    EXPECT_EQ(mine->number_or("total", -1), 5.0);
    EXPECT_EQ(mine->number_or("delta", -1), 5.0);
  }
  obs::counter("test/tel.counter").add(3);
  obs::telemetry_sample_now();
  {
    const Value v = newest_record();
    const Value* mine = v.find("counters")->find("test/tel.counter");
    ASSERT_NE(mine, nullptr);
    EXPECT_EQ(mine->number_or("total", -1), 8.0);
    EXPECT_EQ(mine->number_or("delta", -1), 3.0);
  }
}

TEST(TelemetryWindow, StageStatsAreWindowedAndMonotone) {
  TelemetryGuard guard;
  ASSERT_TRUE(obs::set_telemetry(manual_config()));
  obs::Histogram& h = obs::histogram("test/tel.stage");
  h.record(100.0);
  h.record(200.0);
  h.record(300.0);
  obs::telemetry_sample_now();
  {
    const Value v = newest_record();
    const Value* st = v.find("stages");
    ASSERT_NE(st, nullptr);
    const Value* mine = st->find("test/tel.stage");
    ASSERT_NE(mine, nullptr);
    EXPECT_EQ(mine->number_or("count", -1), 3.0);
    const double p50 = mine->number_or("p50_us", -1);
    const double p95 = mine->number_or("p95_us", -1);
    const double p99 = mine->number_or("p99_us", -1);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_NEAR(mine->number_or("mean_us", -1), 200.0, 20.0);
  }
  // An idle interval omits the stage entirely: the window saw nothing.
  obs::telemetry_sample_now();
  {
    const Value v = newest_record();
    const Value* st = v.find("stages");
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->find("test/tel.stage"), nullptr);
  }
  // The next interval windows only the new sample, not the lifetime.
  h.record(50.0);
  obs::telemetry_sample_now();
  {
    const Value v = newest_record();
    const Value* st = v.find("stages");
    ASSERT_NE(st, nullptr);
    const Value* mine = st->find("test/tel.stage");
    ASSERT_NE(mine, nullptr);
    EXPECT_EQ(mine->number_or("count", -1), 1.0);
  }
}

// ---------------------------------------------------------------------
// Budgets.

TEST(TelemetryBudget, BreachIsCountedAndNamed) {
  TelemetryGuard guard;
  const std::string budgets = temp_path("budgets.json");
  {
    std::ofstream f(budgets);
    f << "{\"budgets\": [{\"stage\": \"test/breach.stage\","
         " \"max_mean_us\": 1}]}";
  }
  obs::TelemetryConfig config = manual_config();
  config.budgets_path = budgets;
  ASSERT_TRUE(obs::set_telemetry(config));
  obs::histogram("test/breach.stage").record(10000.0);
  obs::telemetry_sample_now();
  EXPECT_GE(obs::telemetry_breach_total(), 1u);
  const Value v = newest_record();
  const Value* breaches = v.find("breaches");
  ASSERT_NE(breaches, nullptr);
  ASSERT_TRUE(breaches->is_array());
  ASSERT_FALSE(breaches->as_array().empty());
  const Value& b = breaches->as_array().front();
  EXPECT_EQ(b.string_or("stage", ""), "test/breach.stage");
  EXPECT_EQ(b.string_or("field", ""), "mean_us");
  EXPECT_GT(b.number_or("actual", 0), b.number_or("limit", 1e18));
  fs::remove(budgets);
}

TEST(TelemetryBudget, MissingBudgetFileDegradesGracefully) {
  TelemetryGuard guard;
  obs::TelemetryConfig config = manual_config();
  config.budgets_path = temp_path("no_such_budgets.json");
  ASSERT_TRUE(obs::set_telemetry(config)) << "must degrade, not fail";
  obs::histogram("test/nobudget.stage").record(1e9);
  obs::telemetry_sample_now();
  EXPECT_EQ(obs::telemetry_breach_total(), 0u);
}

// ---------------------------------------------------------------------
// Outputs: JSONL stream shape, OpenMetrics exposition.

TEST(TelemetryOutput, JsonlStreamStartsWithManifestRecord) {
  TelemetryGuard guard;
  const std::string out = temp_path("stream.jsonl");
  fs::remove(out);
  obs::TelemetryConfig config = manual_config();
  config.out_path = out;
  ASSERT_TRUE(obs::set_telemetry(config));
  obs::counter("test/tel.stream").add(1);
  obs::telemetry_sample_now();
  obs::stop_telemetry();

  std::ifstream f(out);
  ASSERT_TRUE(f.is_open());
  std::string line;
  std::vector<Value> records;
  while (std::getline(f, line)) {
    std::string err;
    records.push_back(Value::parse(line, &err));
    ASSERT_TRUE(err.empty()) << err << ": " << line;
  }
  // Manifest + explicit sample + the final flush from stop_telemetry.
  ASSERT_GE(records.size(), 3u);
  EXPECT_EQ(records.front().string_or("kind", ""), "telemetry_start");
  EXPECT_GT(records.front().number_or("unix_ms", 0), 0.0);
  EXPECT_EQ(records[1].string_or("kind", ""), "telemetry");
  fs::remove(out);
}

TEST(TelemetryOutput, OpenMetricsExpositionIsWellFormed) {
  TelemetryGuard guard;
  const std::string om = temp_path("metrics.om");
  fs::remove(om);
  obs::TelemetryConfig config = manual_config();
  config.openmetrics_path = om;
  ASSERT_TRUE(obs::set_telemetry(config));
  obs::counter("test/tel.om_counter").add(2);
  obs::histogram("test/tel.om_stage").record(10.0);
  obs::gauge("test/tel.om_nan").set(std::numeric_limits<double>::quiet_NaN());
  obs::gauge("test/tel.om_inf").set(-std::numeric_limits<double>::infinity());
  obs::telemetry_sample_now();
  obs::telemetry_sample_now();
  obs::stop_telemetry();
  obs::gauge("test/tel.om_nan").reset();
  obs::gauge("test/tel.om_inf").reset();

  std::ifstream f(om);
  ASSERT_TRUE(f.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(f, line);) lines.push_back(line);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "# EOF");
  std::string text;
  for (const std::string& l : lines) text += l + "\n";
  EXPECT_NE(text.find("# TYPE mmhand_events counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mmhand_stage_latency_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("mmhand_events_total{name=\"test/tel.om_counter\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.95\""), std::string::npos);
  EXPECT_NE(text.find("mmhand_stage_latency_us_count"), std::string::npos);
  EXPECT_NE(text.find("mmhand_telemetry_intervals_total"), std::string::npos);
  // Non-finite gauges use the spec's bare tokens, not JSON strings.
  EXPECT_NE(text.find("mmhand_gauge{name=\"test/tel.om_nan\"} NaN\n"),
            std::string::npos);
  EXPECT_NE(text.find("mmhand_gauge{name=\"test/tel.om_inf\"} -Inf\n"),
            std::string::npos);
  // Exactly one EOF, and nothing after it.
  std::size_t eofs = 0;
  for (const std::string& l : lines) eofs += (l == "# EOF") ? 1 : 0;
  EXPECT_EQ(eofs, 1u);
  fs::remove(om);
}

// ---------------------------------------------------------------------
// Flight recorder.

TEST(FlightRecorder, RendersEventsAndInFlightSpans) {
  TelemetryGuard guard;
  const std::string ring = temp_path("render.ring");
  fs::remove(ring);
  obs::FlightConfig config;
  config.path = ring;
  config.slots_per_thread = 64;
  ASSERT_TRUE(obs::set_flight(config));
  EXPECT_TRUE(obs::flight_enabled());
  EXPECT_EQ(obs::flight_path(), ring);
  {
    MMHAND_SPAN("test/flight.outer");
    { MMHAND_SPAN("test/flight.inner"); }
    // Render while `outer` is still open: it must show as in-flight.
    std::string error;
    const std::string rendered = obs::flight_render_file(ring, &error);
    ASSERT_FALSE(rendered.empty()) << error;
    EXPECT_NE(rendered.find("test/flight.inner"), std::string::npos);
    EXPECT_NE(rendered.find("in-flight:"), std::string::npos);
    EXPECT_NE(rendered.find("test/flight.outer"), std::string::npos);
    EXPECT_NE(rendered.find("end of flight dump"), std::string::npos);
  }
  fs::remove(ring);
}

TEST(FlightRecorder, RenderRejectsGarbageFiles) {
  const std::string bogus = temp_path("bogus.ring");
  {
    std::ofstream f(bogus, std::ios::binary);
    f << "this is not a flight ring";
  }
  std::string error;
  EXPECT_TRUE(obs::flight_render_file(bogus, &error).empty());
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_TRUE(
      obs::flight_render_file(temp_path("missing.ring"), &error).empty());
  EXPECT_FALSE(error.empty());
  fs::remove(bogus);
}

TEST(FlightRecorderDeathTest, RingSurvivesAbruptProcessExit) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string ring = temp_path("death.ring");
  fs::remove(ring);
  // The child maps the ring, leaves a span open, and exits without any
  // flush or cleanup — the mmap page cache is the only survivor, which
  // is exactly the SIGKILL story.
  EXPECT_EXIT(
      {
        obs::FlightConfig config;
        config.path = ring;
        config.slots_per_thread = 32;
        if (!obs::set_flight(config)) std::_Exit(1);
        MMHAND_SPAN("test/flight.doomed");
        std::_Exit(86);
      },
      ::testing::ExitedWithCode(86), "");
  std::string error;
  const std::string rendered = obs::flight_render_file(ring, &error);
  ASSERT_FALSE(rendered.empty()) << error;
  EXPECT_NE(rendered.find("test/flight.doomed"), std::string::npos);
  EXPECT_NE(rendered.find("in-flight:"), std::string::npos);
  fs::remove(ring);
}

// ---------------------------------------------------------------------
// The contract: telemetry must not perturb numeric outputs.

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

template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  const int prev = num_threads();
  set_num_threads(threads);
  auto result = fn();
  set_num_threads(prev);
  return result;
}

TEST(TelemetryDeterminism, ProcessFrameBitwiseEqualWithTelemetryOnOff) {
  for (const int threads : {1, 4}) {
    const auto plain = with_threads(threads, run_process_frame);
    std::vector<float> sampled;
    {
      TelemetryGuard guard;
      const std::string ring = temp_path("determinism.ring");
      fs::remove(ring);
      obs::FlightConfig fc;
      fc.path = ring;
      ASSERT_TRUE(obs::set_flight(fc));
      ASSERT_TRUE(obs::set_telemetry(manual_config()));
      sampled = with_threads(threads, run_process_frame);
      obs::telemetry_sample_now();
      fs::remove(ring);
    }
    ASSERT_EQ(plain.size(), sampled.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
      ASSERT_EQ(plain[i], sampled[i])
          << "cube cell " << i << " at " << threads << " threads";
  }
}

}  // namespace
}  // namespace mmhand
