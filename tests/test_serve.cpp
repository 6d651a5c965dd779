// Serving-layer tests: config grammar, deterministic backoff, batched
// forward parity, admission/shedding/deadline semantics, degradation
// hysteresis, join/leave races (the TSan job runs this binary), and
// drained-server bitwise parity with the offline pipeline.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mmhand/common/parallel.hpp"
#include "mmhand/fault/fault.hpp"
#include "mmhand/nn/gru.hpp"
#include "mmhand/nn/lstm.hpp"
#include "mmhand/obs/alloc.hpp"
#include "mmhand/pose/inference.hpp"
#include "mmhand/pose/samples.hpp"
#include "mmhand/pose/trainer.hpp"
#include "mmhand/serve/backoff.hpp"
#include "mmhand/serve/client.hpp"
#include "mmhand/serve/server.hpp"
#include "mmhand/sim/dataset.hpp"

namespace mmhand {
namespace {

using serve::Disposition;
using serve::ServeConfig;
using serve::Server;
using serve::ShedPolicy;
using serve::Tier;

// ---------------------------------------------------------------------------
// Config grammar

TEST(ServeConfig, DefaultsAreValid) {
  ServeConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.policy, ShedPolicy::kDropOldest);
}

TEST(ServeConfig, ParsesFullSpec) {
  const auto cfg = serve::parse_serve_spec(
      "deadline_ms=12.5,max_sessions=4,max_inflight=9,queue_cap=2,"
      "batch_max=3,policy=reject_new,shed_hi=0.9,shed_lo=0.1,hold=5,"
      "retry_ms=2.5,seed=77");
  EXPECT_DOUBLE_EQ(cfg.deadline_ms, 12.5);
  EXPECT_EQ(cfg.max_sessions, 4);
  EXPECT_EQ(cfg.max_inflight, 9);
  EXPECT_EQ(cfg.queue_cap, 2);
  EXPECT_EQ(cfg.batch_max, 3);
  EXPECT_EQ(cfg.policy, ShedPolicy::kRejectNew);
  EXPECT_DOUBLE_EQ(cfg.shed_hi, 0.9);
  EXPECT_DOUBLE_EQ(cfg.shed_lo, 0.1);
  EXPECT_EQ(cfg.hold_ticks, 5);
  EXPECT_DOUBLE_EQ(cfg.retry_ms, 2.5);
  EXPECT_EQ(cfg.seed, 77u);
}

TEST(ServeConfig, RejectsMalformedSpecs) {
  EXPECT_THROW(serve::parse_serve_spec("bogus_key=1"), Error);
  EXPECT_THROW(serve::parse_serve_spec("deadline_ms=abc"), Error);
  EXPECT_THROW(serve::parse_serve_spec("policy=sometimes"), Error);
  EXPECT_THROW(serve::parse_serve_spec("deadline_ms"), Error);
  EXPECT_THROW(serve::parse_serve_spec("deadline_ms=0"), Error);
  EXPECT_THROW(serve::parse_serve_spec("shed_lo=0.8,shed_hi=0.2"), Error);
}

TEST(ServeConfig, TierNamesAreStable) {
  EXPECT_STREQ(serve::tier_name(Tier::kFull), "full");
  EXPECT_STREQ(serve::tier_name(Tier::kNoMesh), "no_mesh");
  EXPECT_STREQ(serve::tier_name(Tier::kPoseOnly), "pose_only");
}

// ---------------------------------------------------------------------------
// Backoff

TEST(Backoff, DeterministicInItsInputs) {
  const double a = serve::backoff_delay_ms(1, 2, 3, 5.0, 80.0, 0.0);
  const double b = serve::backoff_delay_ms(1, 2, 3, 5.0, 80.0, 0.0);
  EXPECT_DOUBLE_EQ(a, b);
  // Distinct sessions draw distinct jitter.
  const double c = serve::backoff_delay_ms(1, 9, 3, 5.0, 80.0, 0.0);
  EXPECT_NE(a, c);
}

TEST(Backoff, WindowGrowsAndCaps) {
  // Every delay lies in [window/2, window) for window = min(base*2^n, cap).
  for (int attempt = 0; attempt < 12; ++attempt) {
    double window = 5.0;
    for (int a = 0; a < attempt && window < 80.0; ++a) window *= 2.0;
    if (window > 80.0) window = 80.0;
    const double d = serve::backoff_delay_ms(42, 7, attempt, 5.0, 80.0, 0.0);
    EXPECT_GE(d, window / 2.0);
    EXPECT_LT(d, window);
  }
}

TEST(Backoff, HonorsRetryAfterHint) {
  const double d = serve::backoff_delay_ms(1, 2, 0, 5.0, 80.0, 500.0);
  EXPECT_GE(d, 500.0);
}

// ---------------------------------------------------------------------------
// Batched forward parity

nn::Tensor random_tensor(const nn::Shape& shape, Rng& rng) {
  return nn::Tensor::randn(shape, rng, 1.0);
}

TEST(ForwardSequences, LstmBatchedPathMatchesPerSample) {
  // A recurrent layer takes its batch from the input's shape: sequence b
  // of a rank-3 [B, T, F] forward must equal a rank-2 [T, F] forward over
  // that sequence alone, bit for bit.  The GRU shares the LSTM's shape.
  constexpr int kBatch = 3, t_len = 5, in = 6, hid = 8;
  Rng rng(3);
  nn::Lstm lstm(in, hid, rng);
  nn::Gru gru(in, hid, rng);
  Rng xrng(4);
  std::vector<nn::Tensor> xs;
  for (int b = 0; b < kBatch; ++b)
    xs.push_back(random_tensor({t_len, in}, xrng));
  nn::Tensor stacked({kBatch, t_len, in});
  for (int b = 0; b < kBatch; ++b)
    std::copy(xs[static_cast<std::size_t>(b)].data(),
              xs[static_cast<std::size_t>(b)].data() + t_len * in,
              stacked.data() + static_cast<std::size_t>(b) * t_len * in);
  for (nn::Layer* layer : {static_cast<nn::Layer*>(&lstm),
                           static_cast<nn::Layer*>(&gru)}) {
    const nn::Tensor batched = layer->forward(stacked, false);
    ASSERT_EQ(batched.shape(), nn::Shape({kBatch, t_len, hid}));
    // backward handles one sequence, so training takes rank 2 only.
    EXPECT_THROW(layer->forward(stacked, true), Error) << layer->name();
    for (int b = 0; b < kBatch; ++b) {
      const nn::Tensor solo =
          layer->forward(xs[static_cast<std::size_t>(b)], false);
      for (int t = 0; t < t_len; ++t)
        for (int h = 0; h < hid; ++h)
          EXPECT_EQ(batched.at(b, t, h), solo.at(t, h))
              << layer->name() << " sample " << b << " t " << t << " h "
              << h;
    }
  }
}

pose::PoseNetConfig tiny_net() {
  pose::PoseNetConfig cfg;
  cfg.segment_frames = 2;
  cfg.sequence_segments = 2;
  cfg.velocity_bins = 4;
  cfg.range_bins = 8;
  cfg.angle_bins = 8;
  cfg.feature_dim = 24;
  cfg.lstm_hidden = 16;
  cfg.spacenet.stem_channels = 4;
  cfg.spacenet.block1_channels = 6;
  cfg.spacenet.block2_channels = 6;
  return cfg;
}

TEST(ForwardBatch, MatchesPerSampleForwardBitwise) {
  const auto cfg = tiny_net();
  Rng rng(7);
  pose::HandJointRegressor model(cfg, rng);
  Rng xrng(8);
  const int frames = cfg.frames_per_sample();
  std::vector<nn::Tensor> xs;
  for (int b = 0; b < 3; ++b)
    xs.push_back(random_tensor(
        {frames, cfg.velocity_bins, cfg.range_bins, cfg.angle_bins}, xrng));
  nn::Tensor stacked({3 * frames, cfg.velocity_bins, cfg.range_bins,
                      cfg.angle_bins});
  const std::size_t per = xs[0].numel();
  for (int b = 0; b < 3; ++b)
    std::copy(xs[static_cast<std::size_t>(b)].data(),
              xs[static_cast<std::size_t>(b)].data() + per,
              stacked.data() + static_cast<std::size_t>(b) * per);
  const nn::Tensor batched = model.forward_batch(stacked, 3);
  ASSERT_EQ(batched.dim(0), 3 * cfg.sequence_segments);
  for (int b = 0; b < 3; ++b) {
    const nn::Tensor solo =
        model.forward(xs[static_cast<std::size_t>(b)], false);
    for (int s = 0; s < cfg.sequence_segments; ++s)
      for (int j = 0; j < 63; ++j)
        EXPECT_EQ(batched.at(b * cfg.sequence_segments + s, j),
                  solo.at(s, j));
  }
}

// ---------------------------------------------------------------------------
// Server fixtures

sim::Recording tiny_recording(int frames) {
  radar::ChirpConfig chirp;
  chirp.chirps_per_frame = 4;
  chirp.samples_per_chirp = 16;
  chirp.frame_period_s = 0.05;
  radar::PipelineConfig pc;
  pc.cube.range_bins = 8;
  pc.cube.azimuth_bins = 6;
  pc.cube.elevation_bins = 2;
  const sim::DatasetBuilder builder(chirp, pc);
  sim::ScenarioConfig scenario;
  scenario.duration_s = frames * chirp.frame_period_s;
  return builder.record(scenario);
}

/// Manually stepped fake clock (nanoseconds).
std::atomic<std::uint64_t> g_fake_now{0};
std::uint64_t fake_clock() {
  return g_fake_now.load(std::memory_order_relaxed);
}

/// Clock that advances 10 ms on every read: the batch that dispatches
/// just inside its deadline completes just outside it.
std::atomic<std::uint64_t> g_adv_now{0};
std::uint64_t advancing_clock() {
  return g_adv_now.fetch_add(10'000'000ull, std::memory_order_relaxed);
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_fake_now.store(0);
    g_adv_now.store(0);
    rng_ = std::make_unique<Rng>(11);
    model_ = std::make_unique<pose::HandJointRegressor>(tiny_net(), *rng_);
    recording_ = tiny_recording(12);
  }

  Server make_server(ServeConfig cfg, serve::ClockFn clock = fake_clock) {
    Server::Options opts;
    opts.manual_step = true;
    opts.clock = clock;
    return Server(cfg, *model_, opts);
  }

  /// Submits one full window (frames cycled from the recording).
  void submit_window(Server& server, serve::SessionId id) {
    const int frames = tiny_net().frames_per_sample();
    for (int f = 0; f < frames; ++f) {
      const auto& cube =
          recording_.frames[cursor_++ % recording_.frames.size()].cube;
      ASSERT_TRUE(server.submit(id, cube).accepted);
    }
  }

  std::unique_ptr<Rng> rng_;
  std::unique_ptr<pose::HandJointRegressor> model_;
  sim::Recording recording_;
  std::size_t cursor_ = 0;
};

TEST_F(ServerTest, AdmissionControlCapsSessions) {
  ServeConfig cfg;
  cfg.max_sessions = 2;
  Server server = make_server(cfg);
  const auto a = server.join();
  const auto b = server.join();
  EXPECT_TRUE(a.admitted);
  EXPECT_TRUE(b.admitted);
  EXPECT_NE(a.id, b.id);
  const auto c = server.join();
  EXPECT_FALSE(c.admitted);
  EXPECT_GT(c.retry_after_ms, 0.0);
  // leave() frees the slot; a rejoin gets a fresh id.
  server.leave(a.id);
  const auto d = server.join();
  EXPECT_TRUE(d.admitted);
  EXPECT_NE(d.id, a.id);
}

TEST_F(ServerTest, SubmitToUnknownSessionIsFlagged) {
  ServeConfig cfg;
  Server server = make_server(cfg);
  const auto r = server.submit(12345, recording_.frames[0].cube);
  EXPECT_FALSE(r.accepted);
  EXPECT_TRUE(r.session_unknown);
}

TEST_F(ServerTest, CompletedWindowMatchesOfflinePredictionBitwise) {
  ServeConfig cfg;
  Server server = make_server(cfg);
  const auto j = server.join();
  ASSERT_TRUE(j.admitted);
  submit_window(server, j.id);
  server.drain();
  std::vector<serve::WindowResult> results;
  ASSERT_EQ(server.poll(j.id, &results), 1u);
  EXPECT_EQ(results[0].disposition, Disposition::kCompleted);
  EXPECT_EQ(results[0].seq, 0u);
  EXPECT_EQ(results[0].first_frame, 0);
  EXPECT_EQ(results[0].last_frame, tiny_net().frames_per_sample() - 1);

  const auto samples = pose::make_pose_samples(recording_, tiny_net());
  ASSERT_GE(samples.size(), 1u);
  const nn::Tensor want = pose::predict_sample(*model_, samples[0]);
  ASSERT_EQ(results[0].pose.numel(), want.numel());
  for (std::size_t e = 0; e < want.numel(); ++e)
    EXPECT_EQ(results[0].pose[e], want[e]);
}

TEST_F(ServerTest, CrossSessionBatchingPreservesPerSessionResults) {
  ServeConfig cfg;
  cfg.batch_max = 8;
  Server server = make_server(cfg);
  const auto a = server.join();
  const auto b = server.join();
  ASSERT_TRUE(a.admitted && b.admitted);
  // Both windows carry the same frames, so both sessions must receive
  // bitwise-identical poses out of one coalesced batch.
  cursor_ = 0;
  submit_window(server, a.id);
  cursor_ = 0;
  submit_window(server, b.id);
  EXPECT_EQ(server.step(), 2);
  EXPECT_EQ(server.stats().batches, 1u);
  std::vector<serve::WindowResult> ra, rb;
  ASSERT_EQ(server.poll(a.id, &ra), 1u);
  ASSERT_EQ(server.poll(b.id, &rb), 1u);
  for (std::size_t e = 0; e < ra[0].pose.numel(); ++e)
    EXPECT_EQ(ra[0].pose[e], rb[0].pose[e]);
}

TEST_F(ServerTest, QueuedWindowPastDeadlineIsCancelled) {
  ServeConfig cfg;
  cfg.deadline_ms = 5.0;
  Server server = make_server(cfg);
  const auto j = server.join();
  ASSERT_TRUE(j.admitted);
  submit_window(server, j.id);
  g_fake_now.store(6'000'000);  // 6 ms later: past the 5 ms deadline
  EXPECT_EQ(server.step(), 1);
  std::vector<serve::WindowResult> results;
  ASSERT_EQ(server.poll(j.id, &results), 1u);
  EXPECT_EQ(results[0].disposition, Disposition::kDeadlineMissed);
  EXPECT_EQ(server.stats().windows_missed, 1u);
  EXPECT_EQ(server.stats().windows_completed, 0u);
}

TEST_F(ServerTest, DeadlineExpiryMidBatchIsDetected) {
  ServeConfig cfg;
  cfg.deadline_ms = 15.0;  // the advancing clock moves 10 ms per read
  Server server = make_server(cfg, advancing_clock);
  const auto j = server.join();
  ASSERT_TRUE(j.admitted);
  submit_window(server, j.id);  // ready at t=0, deadline 15 ms
  // step(): expiry check reads t=10 ms (inside), completion reads
  // t=20 ms (outside) — the window went stale while the batch ran.
  EXPECT_EQ(server.step(), 1);
  std::vector<serve::WindowResult> results;
  ASSERT_EQ(server.poll(j.id, &results), 1u);
  EXPECT_EQ(results[0].disposition, Disposition::kDeadlineMissed);
  EXPECT_FALSE(results[0].pose.empty());  // late work is still delivered
}

TEST_F(ServerTest, DropOldestShedsTheStalestWindow) {
  ServeConfig cfg;
  cfg.queue_cap = 1;
  cfg.policy = ShedPolicy::kDropOldest;
  Server server = make_server(cfg);
  const auto j = server.join();
  ASSERT_TRUE(j.admitted);
  submit_window(server, j.id);  // seq 0 queues
  submit_window(server, j.id);  // seq 1 evicts seq 0
  std::vector<serve::WindowResult> results;
  ASSERT_EQ(server.poll(j.id, &results), 1u);
  EXPECT_EQ(results[0].disposition, Disposition::kShed);
  EXPECT_EQ(results[0].seq, 0u);
  server.drain();
  results.clear();
  ASSERT_EQ(server.poll(j.id, &results), 1u);
  EXPECT_EQ(results[0].disposition, Disposition::kCompleted);
  EXPECT_EQ(results[0].seq, 1u);
  EXPECT_EQ(server.stats().windows_shed, 1u);
}

TEST_F(ServerTest, RejectNewRefusesTheCompletingFrame) {
  ServeConfig cfg;
  cfg.queue_cap = 1;
  cfg.policy = ShedPolicy::kRejectNew;
  Server server = make_server(cfg);
  const auto j = server.join();
  ASSERT_TRUE(j.admitted);
  submit_window(server, j.id);  // seq 0 queues, queue now full
  const int frames = tiny_net().frames_per_sample();
  for (int f = 0; f < frames - 1; ++f)
    ASSERT_TRUE(
        server.submit(j.id, recording_.frames[static_cast<std::size_t>(f)]
                                .cube)
            .accepted);
  const auto r =
      server.submit(j.id,
                    recording_.frames[static_cast<std::size_t>(frames - 1)]
                        .cube);
  EXPECT_FALSE(r.accepted);
  EXPECT_FALSE(r.session_unknown);
  EXPECT_GT(r.retry_after_ms, 0.0);
  // The queued window is untouched and completes normally.
  server.drain();
  std::vector<serve::WindowResult> results;
  ASSERT_EQ(server.poll(j.id, &results), 1u);
  EXPECT_EQ(results[0].disposition, Disposition::kCompleted);
  // After the drain frees the queue, the retried frame is accepted.
  const auto retry =
      server.submit(j.id,
                    recording_.frames[static_cast<std::size_t>(frames - 1)]
                        .cube);
  EXPECT_TRUE(retry.accepted);
}

TEST_F(ServerTest, TierEscalatesWithHysteresisAndRecovers) {
  ServeConfig cfg;
  cfg.queue_cap = 2;
  cfg.batch_max = 1;
  cfg.max_inflight = 64;
  cfg.hold_ticks = 3;
  cfg.shed_hi = 0.75;
  cfg.shed_lo = 0.25;
  cfg.deadline_ms = 1e9;
  Server server = make_server(cfg);
  const auto j = server.join();
  ASSERT_TRUE(j.admitted);
  // Pressure 1.0 (2 queued / 1 session * cap 2).  Each step drains one
  // window but we refill, so pressure stays above shed_hi.
  submit_window(server, j.id);
  submit_window(server, j.id);
  EXPECT_EQ(server.tier(), Tier::kFull);
  server.step();  // hi streak 1
  submit_window(server, j.id);
  EXPECT_EQ(server.tier(), Tier::kFull);  // hysteresis holds
  server.step();  // hi streak 2
  submit_window(server, j.id);
  EXPECT_EQ(server.tier(), Tier::kFull);
  server.step();  // hi streak 3 -> escalate
  EXPECT_EQ(server.tier(), Tier::kNoMesh);
  // Pressure drops to zero: recovery needs hold_ticks quiet steps too.
  server.drain();
  server.step();
  EXPECT_EQ(server.tier(), Tier::kNoMesh);  // no flapping
  server.step();
  EXPECT_EQ(server.tier(), Tier::kNoMesh);
  server.step();
  EXPECT_EQ(server.tier(), Tier::kFull);
}

TEST_F(ServerTest, PoseOnlyTierHalvesWindowDensity) {
  ServeConfig cfg;
  cfg.queue_cap = 2;
  cfg.batch_max = 1;
  cfg.hold_ticks = 1;
  cfg.deadline_ms = 1e9;
  Server server = make_server(cfg);
  const auto j = server.join();
  ASSERT_TRUE(j.admitted);
  // Two escalations with hold 1: kFull -> kNoMesh -> kPoseOnly.
  submit_window(server, j.id);
  submit_window(server, j.id);
  server.step();
  submit_window(server, j.id);
  server.step();
  EXPECT_EQ(server.tier(), Tier::kPoseOnly);
  // Under kPoseOnly every other completed window is shed pre-queue.
  const auto before = server.stats();
  submit_window(server, j.id);
  submit_window(server, j.id);
  const auto after = server.stats();
  EXPECT_EQ(after.degraded_drops - before.degraded_drops, 1u);
  server.drain();
}

TEST_F(ServerTest, StatsAccountForEveryWindow) {
  ServeConfig cfg;
  Server server = make_server(cfg);
  const auto j = server.join();
  ASSERT_TRUE(j.admitted);
  for (int w = 0; w < 3; ++w) submit_window(server, j.id);
  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.windows_completed + stats.windows_shed +
                stats.windows_missed,
            3u);
  EXPECT_EQ(stats.ready_depth, 0);
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_LE(stats.max_ready_depth,
            static_cast<std::uint64_t>(cfg.max_inflight));
}

// ---------------------------------------------------------------------------
// Chaos client

TEST_F(ServerTest, SimClientConsumesServingFaultKinds) {
  fault::set_spec("stall=1,seed=5");
  ServeConfig cfg;
  Server server = make_server(cfg);
  serve::ClientConfig cc;
  serve::SimClient client(server, recording_, cc);
  for (int t = 0; t < 10; ++t) client.tick();
  EXPECT_GT(client.stats().stalls, 0u);
  fault::set_spec("churn=1,seed=5");
  // A stall armed under the previous spec can linger for up to
  // stall_ticks_max ticks; give the churn phase room to drain it.
  for (int t = 0; t < 12; ++t) client.tick();
  EXPECT_GT(client.stats().churns, 0u);
  fault::set_spec("");
  client.finish();
  server.drain();
}

TEST(ServeFaults, NewKindsParseAndInjectDeterministically) {
  fault::set_spec("churn=0.5,burst=0.25,stall=1,seed=42");
  EXPECT_DOUBLE_EQ(fault::rate(fault::Kind::kChurn), 0.5);
  EXPECT_DOUBLE_EQ(fault::rate(fault::Kind::kBurst), 0.25);
  EXPECT_DOUBLE_EQ(fault::rate(fault::Kind::kStall), 1.0);
  std::vector<bool> first;
  for (int i = 0; i < 32; ++i)
    first.push_back(fault::should_inject(fault::Kind::kChurn));
  fault::set_spec("churn=0.5,burst=0.25,stall=1,seed=42");
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(fault::should_inject(fault::Kind::kChurn),
              first[static_cast<std::size_t>(i)]);
  fault::set_spec("");
}

// ---------------------------------------------------------------------------
// Concurrency (exercised under TSan by scripts/check_sanitizer.sh)

TEST_F(ServerTest, JoinLeaveSubmitRacesAreClean) {
  ServeConfig cfg;
  cfg.max_sessions = 8;
  cfg.deadline_ms = 1e9;
  Server::Options opts;  // threaded scheduler, real clock
  Server server(cfg, *model_, opts);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Rng trng(static_cast<std::uint64_t>(100 + t));
      while (!stop.load(std::memory_order_relaxed)) {
        const auto j = server.join();
        if (!j.admitted) continue;
        const int frames = 1 + static_cast<int>(trng.uniform() * 6);
        for (int f = 0; f < frames; ++f)
          server.submit(
              j.id,
              recording_.frames[static_cast<std::size_t>(f) %
                                recording_.frames.size()]
                  .cube);
        std::vector<serve::WindowResult> results;
        server.poll(j.id, &results);
        server.leave(j.id);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& w : workers) w.join();
  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.ready_depth, 0);
  EXPECT_EQ(stats.inflight, 0);
}

// ---------------------------------------------------------------------------
// Drained parity with the offline pipeline

void expect_drained_parity(int threads) {
  const int prev_threads = num_threads();
  set_num_threads(threads);
  Rng rng(11);
  pose::HandJointRegressor model(tiny_net(), rng);
  const sim::Recording recording = tiny_recording(16);

  ServeConfig cfg;
  cfg.deadline_ms = 1e9;
  cfg.queue_cap = 64;
  cfg.max_inflight = 256;
  cfg.batch_max = 3;
  Server::Options opts;
  opts.manual_step = true;
  opts.clock = fake_clock;
  Server server(cfg, model, opts);
  const auto a = server.join();
  const auto b = server.join();
  ASSERT_TRUE(a.admitted && b.admitted);
  for (const auto& frame : recording.frames) {
    ASSERT_TRUE(server.submit(a.id, frame.cube).accepted);
    ASSERT_TRUE(server.submit(b.id, frame.cube).accepted);
  }
  server.drain();

  // Reference: predict_recording's healthy path over the same windows.
  const auto predictions = pose::predict_recording(model, recording);
  const auto cfg_net = tiny_net();
  const int segments = cfg_net.sequence_segments;
  for (const auto id : {a.id, b.id}) {
    std::vector<serve::WindowResult> results;
    server.poll(id, &results);
    ASSERT_EQ(results.size(),
              predictions.size() / static_cast<std::size_t>(segments));
    for (const auto& r : results) {
      ASSERT_EQ(r.disposition, Disposition::kCompleted);
      for (int s = 0; s < segments; ++s) {
        const auto& pred =
            predictions[r.seq * static_cast<std::size_t>(segments) +
                        static_cast<std::size_t>(s)];
        const auto got = pose::row_to_joints(r.pose, s);
        for (int joint = 0; joint < hand::kNumJoints; ++joint) {
          EXPECT_EQ(got[static_cast<std::size_t>(joint)].x,
                    pred.joints[static_cast<std::size_t>(joint)].x);
          EXPECT_EQ(got[static_cast<std::size_t>(joint)].y,
                    pred.joints[static_cast<std::size_t>(joint)].y);
          EXPECT_EQ(got[static_cast<std::size_t>(joint)].z,
                    pred.joints[static_cast<std::size_t>(joint)].z);
        }
      }
    }
  }
  set_num_threads(prev_threads);
}

TEST(ServeParity, DrainedServerMatchesOfflinePipelineOneThread) {
  expect_drained_parity(1);
}

TEST(ServeParity, DrainedServerMatchesOfflinePipelineFourThreads) {
  expect_drained_parity(4);
}

// ---------------------------------------------------------------------------
// Tensor pool (the allocation-free serving substrate)

TEST(TensorPool, SteadyStateForwardRecyclesBuffers) {
  nn::set_tensor_pool_enabled(true);
  Rng rng(13);
  pose::HandJointRegressor model(tiny_net(), rng);
  Rng xrng(14);
  const auto cfg = tiny_net();
  const nn::Tensor x = random_tensor(
      {cfg.frames_per_sample(), cfg.velocity_bins, cfg.range_bins,
       cfg.angle_bins},
      xrng);
  nn::Tensor warm = model.forward(x, false);  // parks the activations
  const auto before = nn::tensor_pool_stats();
  nn::Tensor out = model.forward(x, false);
  const auto after = nn::tensor_pool_stats();
  EXPECT_GT(after.hits, before.hits);
  // Values are unchanged by pooling.
  for (std::size_t e = 0; e < out.numel(); ++e)
    EXPECT_EQ(out[e], warm[e]);
  nn::set_tensor_pool_enabled(false);
  nn::tensor_pool_clear();
}

}  // namespace
}  // namespace mmhand
