// Causal tracing + PMU profiling: FrameScope identity and nesting,
// cross-thread flow events in the Chrome trace, per-frame records in
// the telemetry stream and flight ring, PMU graceful degradation, the
// torn-tail/corruption semantics of mmhand_top's stream parser, tail
// attribution — and the contract underneath all of it: bitwise-identical
// pipeline outputs with tracing + PMU on vs fully off, at 1 and 4
// threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
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
#include "top/top_core.hpp"

namespace mmhand {
namespace {

namespace fs = std::filesystem;
using json::Value;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("mmhand_prof_" + name)).string();
}

/// Every test leaves the obs layer exactly as it found it.
struct ObsGuard {
  ObsGuard() { obs::reset_metrics(); }
  ~ObsGuard() {
    obs::stop_telemetry();
    obs::stop_flight();
    obs::set_tracing_enabled(false);
    obs::set_pmu_enabled(false);
    obs::set_metrics_enabled(false);
    obs::clear_trace();
    obs::reset_metrics();
  }
};

/// Runs `fn` with the pool pinned to `threads`, restoring afterwards.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  const int prev = num_threads();
  set_num_threads(threads);
  auto result = fn();
  set_num_threads(prev);
  return result;
}

/// The deterministic pipeline workload the determinism tests compare.
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

/// Manual-mode sampler: no thread, in-memory ring only, so frame
/// records land in `telemetry_ring_tail` deterministically.
obs::TelemetryConfig manual_config() {
  obs::TelemetryConfig config;
  config.interval_ms = 0;
  return config;
}

// ---------------------------------------------------------------------
// FrameScope identity.

TEST(FrameScope, InactiveWhenObservabilityFullyOff) {
  ObsGuard guard;
  obs::FrameScope scope("test/off");
  EXPECT_EQ(scope.trace_id(), 0u);
  EXPECT_EQ(obs::current_trace_id(), 0u);
}

TEST(FrameScope, NestingRestoresOuterContext) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  EXPECT_EQ(obs::current_trace_id(), 0u);
  obs::FrameScope outer("test/outer");
  ASSERT_NE(outer.trace_id(), 0u);
  EXPECT_EQ(obs::current_trace_id(), outer.trace_id());
  {
    obs::FrameScope inner("test/inner");
    ASSERT_NE(inner.trace_id(), 0u);
    EXPECT_NE(inner.trace_id(), outer.trace_id());
    EXPECT_EQ(obs::current_trace_id(), inner.trace_id());
  }
  EXPECT_EQ(obs::current_trace_id(), outer.trace_id());
}

TEST(FrameScope, TraceIdsAreUniqueAcrossScopes) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 16; ++i) {
    obs::FrameScope scope("test/unique");
    seen.insert(scope.trace_id());
  }
  EXPECT_EQ(seen.size(), 16u);
}

// ---------------------------------------------------------------------
// Flow events: every cross-thread child span links to its frame.

TEST(FrameTrace, FlowEventsLinkWorkerSpansAtFourThreads) {
  ObsGuard guard;
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  // A window-sized conv batch under one frame scope, as serve/batch runs
  // it: the per-sample fan-out puts conv work on pool workers.
  with_threads(4, [] {
    Rng rng(3);
    nn::Conv2d conv(3, 8, 3, 1, 1, rng);
    const nn::Tensor x = nn::Tensor::randn({8, 3, 16, 16}, rng, 1.0);
    obs::FrameScope frame("test/conv_batch");
    return conv.forward(x, /*training=*/false).vec();
  });
  obs::set_tracing_enabled(false);

  const std::string path = temp_path("flow_trace.json");
  ASSERT_TRUE(obs::write_trace(path));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  fs::remove(path);
  std::string err;
  const Value doc = Value::parse(text, &err);
  ASSERT_TRUE(err.empty()) << err;
  const Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  struct Anchor {
    double ts = 0.0;
    double tid = -1.0;
  };
  std::map<std::uint64_t, Anchor> sources;
  struct Binding {
    std::uint64_t id;
    double ts;
    double tid;
  };
  std::vector<Binding> bindings;
  std::size_t tagged = 0;
  for (const Value& e : events->as_array()) {
    const std::string ph = e.string_or("ph", "");
    if (ph == "s") {
      EXPECT_EQ(e.string_or("cat", ""), "mmhand_flow");
      sources[static_cast<std::uint64_t>(e.number_or("id", 0))] = {
          e.number_or("ts", 0.0), e.number_or("tid", -1.0)};
    } else if (ph == "f") {
      EXPECT_EQ(e.string_or("bp", ""), "e");
      bindings.push_back({static_cast<std::uint64_t>(e.number_or("id", 0)),
                          e.number_or("ts", 0.0),
                          e.number_or("tid", -1.0)});
    }
    if (const Value* args = e.find("args");
        args != nullptr && args->find("trace_id") != nullptr)
      ++tagged;
  }
  ASSERT_FALSE(sources.empty()) << "no flow anchors recorded";
  // The 4-thread per-sample fan-out runs samples on workers, so at least
  // one worker span must have bound back to the frame.
  ASSERT_FALSE(bindings.empty()) << "no cross-thread flow bindings";
  EXPECT_GT(tagged, 0u);
  for (const Binding& b : bindings) {
    const auto it = sources.find(b.id);
    ASSERT_NE(it, sources.end()) << "f event without s anchor, id " << b.id;
    EXPECT_LE(it->second.ts, b.ts) << "flow binds before its anchor";
    EXPECT_NE(it->second.tid, b.tid)
        << "flow target on the origin thread should not be cross-thread";
  }
}

// ---------------------------------------------------------------------
// Per-frame records.

TEST(FrameRecords, OneRecordPerFrameInTelemetryRing) {
  ObsGuard guard;
  ASSERT_TRUE(obs::set_telemetry(manual_config()));
  const std::uint64_t before = obs::frame_records_emitted();
  constexpr int kFrames = 3;
  for (int i = 0; i < kFrames; ++i) with_threads(2, run_process_frame);
  EXPECT_EQ(obs::frame_records_emitted() - before,
            static_cast<std::uint64_t>(kFrames));

  std::vector<std::string> tail = obs::telemetry_ring_tail(64);
  std::vector<Value> frames;
  for (const std::string& line : tail) {
    std::string err;
    Value v = Value::parse(line, &err);
    ASSERT_TRUE(err.empty()) << err;
    if (v.string_or("kind", "") == "frame") frames.push_back(std::move(v));
  }
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(kFrames));
  std::int64_t prev_id = -1;
  for (const Value& f : frames) {
    EXPECT_EQ(f.string_or("label", ""), "radar/process_frame");
    EXPECT_GT(f.number_or("total_us", 0.0), 0.0);
    EXPECT_GT(f.number_or("trace_id", 0.0), 0.0);
    const std::int64_t id =
        static_cast<std::int64_t>(f.number_or("frame_id", -1));
    EXPECT_GT(id, prev_id) << "frame ids must increase";
    prev_id = id;
    const Value* stages = f.find("stages");
    ASSERT_NE(stages, nullptr);
    ASSERT_TRUE(stages->is_object());
    EXPECT_NE(stages->find("radar/range_fft"), nullptr);
    EXPECT_NE(stages->find("radar/doppler_fft"), nullptr);
    double stage_us = 0.0;
    for (const auto& [name, s] : stages->as_object()) {
      EXPECT_GE(s.number_or("count", 0.0), 1.0) << name;
      stage_us += s.number_or("us", 0.0);
    }
    EXPECT_GT(stage_us, 0.0);
  }
}

TEST(FrameRecords, FlightRingCarriesFrameNotes) {
  ObsGuard guard;
  const std::string ring = temp_path("frame_notes.ring");
  fs::remove(ring);
  obs::FlightConfig fc;
  fc.path = ring;
  ASSERT_TRUE(obs::set_flight(fc));
  with_threads(1, run_process_frame);
  obs::stop_flight();
  std::string error;
  const std::string rendered = obs::flight_render_file(ring, &error);
  fs::remove(ring);
  ASSERT_FALSE(rendered.empty()) << error;
  EXPECT_NE(rendered.find("frame "), std::string::npos)
      << "no per-frame note in flight ring";
  EXPECT_NE(rendered.find("worst="), std::string::npos);
}

// ---------------------------------------------------------------------
// PMU: whichever way perf_event resolves on this host, the run works.

TEST(Pmu, EnabledRunWorksWithOrWithoutHardwareCounters) {
  ObsGuard guard;
  obs::set_pmu_enabled(true);
  EXPECT_TRUE(obs::pmu_enabled());
  EXPECT_TRUE(obs::metrics_enabled()) << "MMHAND_PMU implies metrics";
  with_threads(2, run_process_frame);
  const std::string snapshot = obs::metrics_json();
  if (obs::pmu_available()) {
    // Hardware counters opened: per-stage aggregates must exist.
    EXPECT_NE(snapshot.find("pmu/"), std::string::npos);
    EXPECT_NE(snapshot.find(".cycles"), std::string::npos);
  } else {
    // Graceful clock-only degradation: no partial pmu counters, and the
    // wall-clock histograms are still there.
    EXPECT_EQ(snapshot.find("pmu/"), std::string::npos);
    EXPECT_NE(snapshot.find("radar/range_fft"), std::string::npos);
  }
}

TEST(Pmu, EventNamesAreStable) {
  ASSERT_EQ(obs::kPmuEvents, 5);
  EXPECT_STREQ(obs::pmu_event_name(0), "cycles");
  EXPECT_STREQ(obs::pmu_event_name(1), "instructions");
  EXPECT_STREQ(obs::pmu_event_name(4), "branch_misses");
  EXPECT_STREQ(obs::pmu_event_name(5), "");
  EXPECT_STREQ(obs::pmu_event_name(-1), "");
}

// ---------------------------------------------------------------------
// The load-bearing contract: tracing + PMU change nothing numerically.

TEST(ProfDeterminism, BitwiseIdenticalWithTracingAndPmuOnVsOff) {
  for (const int threads : {1, 4}) {
    const auto plain = with_threads(threads, run_process_frame);
    std::vector<float> profiled;
    {
      ObsGuard guard;
      obs::set_tracing_enabled(true);
      obs::set_pmu_enabled(true);
      ASSERT_TRUE(obs::set_telemetry(manual_config()));
      profiled = with_threads(threads, run_process_frame);
      obs::clear_trace();
    }
    ASSERT_EQ(plain.size(), profiled.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
      ASSERT_EQ(plain[i], profiled[i])
          << "cube cell " << i << " at " << threads << " threads";
  }
}

// ---------------------------------------------------------------------
// mmhand_top's stream parser: torn tails are benign, interior
// corruption is counted, tail attribution names the dominant stage.

TEST(TopCore, TornFinalLineIsBenign) {
  const std::string text =
      "{\"kind\": \"telemetry\", \"dt_ms\": 100}\n"
      "{\"kind\": \"telemetry\", \"dt_ms\": 100}\n"
      "{\"kind\": \"telemetry\", \"dt_";  // killed writer, no newline
  const top::ParsedStream s = top::parse_jsonl(text);
  EXPECT_EQ(s.records.size(), 2u);
  EXPECT_TRUE(s.torn_tail);
  EXPECT_EQ(s.bad_lines, 0u);
  EXPECT_FALSE(top::render_intervals(s, "t", 30).empty());
}

TEST(TopCore, InteriorCorruptionIsCountedNotFatal) {
  const std::string text =
      "{\"kind\": \"telemetry\", \"dt_ms\": 100}\n"
      "garbage not json\n"
      "{\"kind\": \"telemetry\", \"dt_ms\": 100}\n";
  const top::ParsedStream s = top::parse_jsonl(text);
  EXPECT_EQ(s.records.size(), 2u);
  EXPECT_FALSE(s.torn_tail);
  EXPECT_EQ(s.bad_lines, 1u);
  const std::string rendered = top::render_intervals(s, "t", 30);
  EXPECT_NE(rendered.find("1 unparseable interior line"),
            std::string::npos);
}

TEST(TopCore, TerminatedBadTailCountsAsCorruption) {
  const std::string text =
      "{\"kind\": \"telemetry\", \"dt_ms\": 100}\n"
      "{\"kind\": \"telemetry\", \"dt_\n";  // bad but newline-terminated
  const top::ParsedStream s = top::parse_jsonl(text);
  EXPECT_EQ(s.records.size(), 1u);
  EXPECT_FALSE(s.torn_tail);
  EXPECT_EQ(s.bad_lines, 1u);
}

TEST(TopCore, TailAttributionNamesTheDominantStage) {
  // 18 fast frames dominated by stage a, two huge frames dominated by
  // stage b: nearest-rank p95 of 20 samples is the 19th, so the p95+
  // set is exactly the two slow frames.
  std::string text;
  for (int i = 0; i < 18; ++i)
    text += "{\"kind\": \"frame\", \"frame_id\": " + std::to_string(i) +
            ", \"label\": \"radar/process_frame\", \"total_us\": 100, "
            "\"stages\": {\"a\": {\"us\": 80, \"count\": 1}, "
            "\"b\": {\"us\": 20, \"count\": 1}}}\n";
  for (int i = 18; i < 20; ++i)
    text += "{\"kind\": \"frame\", \"frame_id\": " + std::to_string(i) +
            ", \"label\": \"radar/process_frame\", \"total_us\": 1000, "
            "\"stages\": {\"a\": {\"us\": 100, \"count\": 1}, "
            "\"b\": {\"us\": 900, \"count\": 1}}}\n";
  const top::ParsedStream s = top::parse_jsonl(text);
  ASSERT_EQ(s.records.size(), 20u);
  const std::string rendered = top::render_tail(s, "t");
  EXPECT_NE(rendered.find("radar/process_frame"), std::string::npos);
  EXPECT_NE(rendered.find("20 frames"), std::string::npos);
  // The dominant-stage attribution of the p95+ tail names b, not a.
  EXPECT_NE(rendered.find("p95+ dominated by b"), std::string::npos);
  EXPECT_EQ(rendered.find("p95+ dominated by a"), std::string::npos);
}

TEST(TopCore, NoFrameRecordsRendersEmptyTailView) {
  const top::ParsedStream s =
      top::parse_jsonl("{\"kind\": \"telemetry\", \"dt_ms\": 100}\n");
  EXPECT_TRUE(top::render_tail(s, "t").empty());
}

}  // namespace
}  // namespace mmhand
