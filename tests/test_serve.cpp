// Serving-layer tests: config grammar, deterministic backoff, batched
// forward parity, admission/shedding/deadline semantics, degradation
// hysteresis, join/leave races (the TSan job runs this binary), and
// drained-server bitwise parity with the offline pipeline.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
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
  // Out-of-int-range integers must not wrap into valid values, and
  // durations must stay finite and convertible to nanoseconds.
  EXPECT_THROW(serve::parse_serve_spec("max_sessions=4294967297"), Error);
  EXPECT_THROW(serve::parse_serve_spec("queue_cap=-4294967295"), Error);
  EXPECT_THROW(serve::parse_serve_spec("deadline_ms=inf"), Error);
  EXPECT_THROW(serve::parse_serve_spec("deadline_ms=1e300"), Error);
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
// Per-frame feature cache: what happens to a session's cached features on
// every path that ends or pauses a window.

/// Offline prediction of every non-overlapping window of `recording`.
std::vector<nn::Tensor> offline_windows(pose::HandJointRegressor& model,
                                        const sim::Recording& recording) {
  std::vector<nn::Tensor> out;
  for (const auto& sample : pose::make_pose_samples(recording, tiny_net()))
    out.push_back(pose::predict_sample(model, sample));
  return out;
}

void expect_same_pose(const nn::Tensor& got, const nn::Tensor& want) {
  ASSERT_EQ(got.numel(), want.numel());
  for (std::size_t e = 0; e < want.numel(); ++e)
    ASSERT_EQ(got[e], want[e]) << "element " << e;
}

class FeatureCacheTest : public ServerTest {
 protected:
  void SetUp() override {
    ServerTest::SetUp();
    want_ = offline_windows(*model_, recording_);
  }

  /// Submits frames [first, last) of recording window `w`.
  void submit_frames(Server& server, serve::SessionId id, int w, int first,
                     int last) {
    const int frames = tiny_net().frames_per_sample();
    for (int f = first; f < last; ++f)
      ASSERT_TRUE(server
                      .submit(id, recording_
                                      .frames[static_cast<std::size_t>(
                                          w * frames + f)]
                                      .cube)
                      .accepted);
  }

  /// Drains, then expects exactly one completed window on `id` equal to
  /// recording window `w`.
  void expect_window(Server& server, serve::SessionId id, int w) {
    server.drain();
    std::vector<serve::WindowResult> results;
    ASSERT_EQ(server.poll(id, &results), 1u);
    ASSERT_EQ(results[0].disposition, Disposition::kCompleted);
    expect_same_pose(results[0].pose, want_[static_cast<std::size_t>(w)]);
  }

  std::vector<nn::Tensor> want_;
  const int frames_ = tiny_net().frames_per_sample();
};

TEST_F(FeatureCacheTest, StepWithNoReadyWindowCachesPendingFrames) {
  Server server = make_server(ServeConfig{});
  const auto a = server.join();
  submit_frames(server, a.id, 0, 0, frames_ - 1);
  EXPECT_EQ(server.step(), 0);
  EXPECT_EQ(server.stats().frames_featured_early,
            static_cast<std::uint64_t>(frames_ - 1));
  submit_frames(server, a.id, 0, frames_ - 1, frames_);
  expect_window(server, a.id, 0);
  EXPECT_EQ(server.stats().frames_featured_in_batch, 1u);
}

TEST_F(FeatureCacheTest, FeaturePassTakesAtMostOneWindowOfFrames) {
  Server server = make_server(ServeConfig{});
  const auto a = server.join();
  const auto b = server.join();
  submit_frames(server, a.id, 0, 0, frames_ - 1);
  submit_frames(server, b.id, 1, 0, frames_ - 1);
  server.step();
  EXPECT_EQ(server.stats().frames_featured_early,
            static_cast<std::uint64_t>(frames_));
  server.step();
  EXPECT_EQ(server.stats().frames_featured_early,
            static_cast<std::uint64_t>(2 * (frames_ - 1)));
  submit_frames(server, a.id, 0, frames_ - 1, frames_);
  submit_frames(server, b.id, 1, frames_ - 1, frames_);
  expect_window(server, a.id, 0);
  expect_window(server, b.id, 1);
  EXPECT_EQ(server.stats().frames_featured_in_batch, 2u);
}

TEST_F(FeatureCacheTest, ReadyWindowTakesPriorityOverFeaturePass) {
  Server server = make_server(ServeConfig{});
  const auto a = server.join();
  const auto b = server.join();
  submit_frames(server, a.id, 0, 0, frames_);  // a's window is ready
  submit_frames(server, b.id, 1, 0, 2);        // b's frames are pending
  EXPECT_EQ(server.step(), 1);
  EXPECT_EQ(server.stats().frames_featured_early, 0u);
  EXPECT_EQ(server.step(), 0);
  EXPECT_EQ(server.stats().frames_featured_early, 2u);
}

TEST_F(FeatureCacheTest, LeaveMidWindowDropsItsCachedFeatures) {
  Server server = make_server(ServeConfig{});
  const auto a = server.join();
  submit_frames(server, a.id, 0, 0, frames_ - 1);
  server.step();  // caches a's frames
  server.leave(a.id);
  // The next session inherits a's recycled storage; none of a's cached
  // rows may leak into its window.
  const auto b = server.join();
  submit_frames(server, b.id, 1, 0, frames_);
  expect_window(server, b.id, 1);
  EXPECT_EQ(server.stats().frames_featured_in_batch,
            static_cast<std::uint64_t>(frames_));
}

TEST_F(FeatureCacheTest, RejectedCompletingFrameKeepsCachedFeatures) {
  ServeConfig cfg;
  cfg.max_inflight = 1;
  cfg.policy = ShedPolicy::kRejectNew;
  Server server = make_server(cfg);
  const auto a = server.join();
  const auto b = server.join();
  submit_frames(server, a.id, 0, 0, frames_ - 1);
  server.step();                               // caches a's frames
  submit_frames(server, b.id, 1, 0, frames_);  // b's window fills the queue
  const auto& last =
      recording_.frames[static_cast<std::size_t>(frames_ - 1)].cube;
  ASSERT_FALSE(server.submit(a.id, last).accepted);
  expect_window(server, b.id, 1);
  const auto before = server.stats();
  ASSERT_TRUE(server.submit(a.id, last).accepted);  // the retry
  expect_window(server, a.id, 0);
  EXPECT_EQ(server.stats().frames_featured_in_batch -
                before.frames_featured_in_batch,
            1u);
}

TEST_F(FeatureCacheTest, PoseOnlyDropDiscardsCachedFeatures) {
  ServeConfig cfg;
  cfg.queue_cap = 2;
  cfg.batch_max = 1;
  cfg.hold_ticks = 1;
  cfg.shed_lo = 0.0;  // never de-escalate: the test steps an idle server
  cfg.deadline_ms = 1e9;
  Server server = make_server(cfg);
  const auto a = server.join();
  for (int w = 0; w < 3; ++w) submit_frames(server, a.id, w, 0, frames_);
  server.step();
  submit_frames(server, a.id, 0, 0, frames_);
  server.step();
  ASSERT_EQ(server.tier(), Tier::kPoseOnly);
  server.drain();
  std::vector<serve::WindowResult> results;
  server.poll(a.id, &results);
  // Fill windows with cached features until one is dropped.
  bool dropped = false;
  for (int tries = 0; tries < 2 && !dropped; ++tries) {
    const auto before = server.stats();
    submit_frames(server, a.id, 0, 0, frames_ - 1);
    server.step();
    submit_frames(server, a.id, 0, frames_ - 1, frames_);
    dropped = server.stats().degraded_drops > before.degraded_drops;
    server.drain();
    results.clear();
    server.poll(a.id, &results);
  }
  ASSERT_TRUE(dropped);
  // The session refills the same storage with other frames and no step
  // between: stale cached rows would change the pose.
  submit_frames(server, a.id, 1, 0, frames_);
  expect_window(server, a.id, 1);
}

TEST_F(FeatureCacheTest, ExpiredWindowRecyclesItsCachedStorage) {
  ServeConfig cfg;
  cfg.deadline_ms = 5.0;
  Server server = make_server(cfg);
  const auto a = server.join();
  submit_frames(server, a.id, 0, 0, frames_ - 1);
  server.step();
  submit_frames(server, a.id, 0, frames_ - 1, frames_);
  g_fake_now.store(6'000'000);  // past the 5 ms deadline
  EXPECT_EQ(server.step(), 1);
  std::vector<serve::WindowResult> results;
  ASSERT_EQ(server.poll(a.id, &results), 1u);
  EXPECT_EQ(results[0].disposition, Disposition::kDeadlineMissed);
  // The next window completes into fresh storage; the one after refills
  // the expired window's recycled storage, with no step to cache it.
  submit_frames(server, a.id, 1, 0, frames_);
  expect_window(server, a.id, 1);
  submit_frames(server, a.id, 2, 0, frames_);
  expect_window(server, a.id, 2);
}

TEST(FeatureCache, FeaturePassOverlappingCompletionAttachesToQueuedWindow) {
  // step() runs on its own thread; the window's last frame goes in once
  // the pass has claimed the others and before it finishes.  The rows
  // must attach to the now-queued window, so its batch computes only
  // the last frame.  The overlap is a race, so a wide trunk keeps the
  // pass long, and the test retries until the overlap happens.
  pose::PoseNetConfig net = tiny_net();
  net.spacenet.stem_channels = 32;
  net.spacenet.block1_channels = 48;
  net.spacenet.block2_channels = 48;
  const int prev_threads = num_threads();
  set_num_threads(1);
  Rng rng(17);
  pose::HandJointRegressor model(net, rng);
  const sim::Recording recording = tiny_recording(12);
  std::vector<nn::Tensor> want;
  for (const auto& sample : pose::make_pose_samples(recording, net))
    want.push_back(pose::predict_sample(model, sample));
  const int frames = net.frames_per_sample();
  Server::Options opts;
  opts.manual_step = true;
  opts.clock = fake_clock;
  Server server(ServeConfig{}, model, opts);
  const auto a = server.join();
  const auto submit = [&](int w, int first, int last) {
    for (int f = first; f < last; ++f)
      ASSERT_TRUE(
          server
              .submit(a.id,
                      recording.frames[static_cast<std::size_t>(w * frames + f)]
                          .cube)
              .accepted);
  };
  bool overlapped = false;
  for (int attempt = 0; attempt < 100 && !overlapped; ++attempt) {
    const int w = attempt % static_cast<int>(want.size());
    submit(w, 0, frames - 1);
    const auto before = server.stats();
    std::thread stepper([&] { server.step(); });
    // Sleep between polls: on a host with little spare CPU a spinning
    // poller would keep the stepper off the core until its slice ends.
    const auto t0 = std::chrono::steady_clock::now();
    while (server.stats().frames_featured_early ==
               before.frames_featured_early &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5))
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    submit(w, frames - 1, frames);
    stepper.join();
    const auto mid = server.stats();
    ASSERT_EQ(mid.frames_featured_early - before.frames_featured_early,
              static_cast<std::uint64_t>(frames - 1));
    overlapped = mid.frames_attached_late > before.frames_attached_late;
    server.drain();
    std::vector<serve::WindowResult> results;
    ASSERT_EQ(server.poll(a.id, &results), 1u);
    ASSERT_EQ(results[0].disposition, Disposition::kCompleted);
    expect_same_pose(results[0].pose, want[static_cast<std::size_t>(w)]);
    EXPECT_EQ(server.stats().frames_featured_in_batch -
                  before.frames_featured_in_batch,
              1u);
  }
  set_num_threads(prev_threads);
  EXPECT_TRUE(overlapped);
  EXPECT_EQ(server.stats().frames_attached_late,
            static_cast<std::uint64_t>(frames - 1));
}

/// A manual-step server over a wide trunk (so a feature pass takes a
/// while) whose step() runs on its own thread: the test acts while the
/// pass reads the window stores in place.  A store the pass reads must
/// not be refilled before it ends; the stores it would take instead are
/// what TSan checks here (scripts/check_tsan.sh runs this binary).
class FeaturePassRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_fake_now.store(0);
    prev_threads_ = num_threads();
    set_num_threads(1);
    pose::PoseNetConfig net = tiny_net();
    net.spacenet.stem_channels = 32;
    net.spacenet.block1_channels = 48;
    net.spacenet.block2_channels = 48;
    Rng rng(17);
    model_ = std::make_unique<pose::HandJointRegressor>(net, rng);
    recording_ = tiny_recording(12);
    for (const auto& sample : pose::make_pose_samples(recording_, net))
      want_.push_back(pose::predict_sample(*model_, sample));
    frames_ = net.frames_per_sample();
  }

  void TearDown() override { set_num_threads(prev_threads_); }

  Server::Options options() const {
    Server::Options opts;
    opts.manual_step = true;
    opts.clock = fake_clock;
    return opts;
  }

  int windows() const { return static_cast<int>(want_.size()); }

  /// Submits frames [first, last) of recording window `w`.
  void submit(Server& server, serve::SessionId id, int w, int first,
              int last) {
    for (int f = first; f < last; ++f)
      ASSERT_TRUE(server
                      .submit(id, recording_
                                      .frames[static_cast<std::size_t>(
                                          w * frames_ + f)]
                                      .cube)
                      .accepted);
  }

  /// Runs one step() on its own thread and calls `during` once the
  /// step's feature pass has claimed frames.  True when `during`
  /// returned before step() did, so it overlapped the pass.
  bool overlap_pass(Server& server, const std::function<void()>& during) {
    const std::uint64_t before = server.stats().frames_featured_early;
    std::atomic<bool> done{false};
    std::thread stepper([&] {
      server.step();
      done.store(true);
    });
    // Sleep between polls: on a host with little spare CPU a spinning
    // poller would keep the stepper off the core until its slice ends.
    const auto t0 = std::chrono::steady_clock::now();
    while (server.stats().frames_featured_early == before &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5))
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    during();
    const bool overlapped = !done.load();
    stepper.join();
    return overlapped;
  }

  /// Drains, then expects every completed window of `id` to equal the
  /// recording window it was filled from (`sent[seq]`).  Returns how
  /// many completed.
  int expect_poses(Server& server, serve::SessionId id,
                   const std::vector<int>& sent) {
    server.drain();
    std::vector<serve::WindowResult> results;
    server.poll(id, &results);
    int completed = 0;
    for (const auto& r : results) {
      if (r.disposition != Disposition::kCompleted) continue;
      EXPECT_LT(r.seq, sent.size());
      if (r.seq >= sent.size()) continue;
      expect_same_pose(r.pose, want_[static_cast<std::size_t>(sent[r.seq])]);
      ++completed;
    }
    return completed;
  }

  int prev_threads_ = 1;
  std::unique_ptr<pose::HandJointRegressor> model_;
  sim::Recording recording_;
  std::vector<nn::Tensor> want_;
  int frames_ = 0;
};

TEST_F(FeaturePassRaceTest, LeaveMidPassThenANewSessionFillsAWindow) {
  // The pass reads the leaving session's store; the new session's frames
  // must land in another one.
  Server server(ServeConfig{}, *model_, options());
  int overlaps = 0;
  for (int attempt = 0; attempt < 100 && overlaps < 3; ++attempt) {
    const int w = attempt % windows();
    const int next = (w + 1) % windows();
    const auto a = server.join();
    submit(server, a.id, w, 0, frames_ - 1);
    serve::SessionId b = 0;
    overlaps += overlap_pass(server, [&] {
      server.leave(a.id);
      b = server.join().id;
      submit(server, b, next, 0, frames_);
    });
    EXPECT_EQ(expect_poses(server, b, {next}), 1);
    server.leave(b);
  }
  EXPECT_GT(overlaps, 0);
}

TEST_F(FeaturePassRaceTest, WindowDroppedOrExpiredMidPassThenTheNextFills) {
  // The window the pass reads completes meanwhile and never runs: under
  // kPoseOnly it is dropped at once (its store goes back while the pass
  // still reads it), or it queues and expires.  The session's next window
  // must come out as the offline pose either way.
  for (const bool pose_only : {true, false}) {
    SCOPED_TRACE(pose_only ? "pose_only drop" : "deadline expiry");
    g_fake_now.store(0);
    ServeConfig cfg;
    if (pose_only) {
      cfg.queue_cap = 2;
      cfg.batch_max = 1;
      cfg.hold_ticks = 1;
      cfg.shed_lo = 0.0;  // never de-escalate
      cfg.deadline_ms = 1e9;
    } else {
      cfg.deadline_ms = 5.0;
    }
    Server server(cfg, *model_, options());
    const auto a = server.join();
    std::vector<int> sent;  // recording window of each seq
    const auto send_window = [&](int w) {
      sent.push_back(w);
      submit(server, a.id, w, 0, frames_);
    };
    if (pose_only) {
      // Two steps at full queue pressure: kFull -> kNoMesh -> kPoseOnly.
      for (int w = 0; w < 3; ++w) send_window(w);
      server.step();
      send_window(0);
      server.step();
      ASSERT_EQ(server.tier(), Tier::kPoseOnly);
      expect_poses(server, a.id, sent);
    }
    int overlaps = 0;
    for (int attempt = 0; attempt < 100 && overlaps < 3; ++attempt) {
      const int w = attempt % windows();
      const int next = (w + 1) % windows();
      sent.push_back(w);
      submit(server, a.id, w, 0, frames_ - 1);
      const std::uint64_t drops = server.stats().degraded_drops;
      bool w_dropped = false;
      const bool overlapped = overlap_pass(server, [&] {
        submit(server, a.id, w, frames_ - 1, frames_);  // w completes
        w_dropped = server.stats().degraded_drops > drops;
        if (w_dropped) send_window(next);
      });
      int want_completed = 1;
      if (pose_only && !w_dropped) {
        // `w` queued instead: `next` is dropped, and one more window
        // shifts the alternation so that the next attempt's `w` drops.
        send_window(next);
        send_window(next);
        want_completed = 2;
      } else if (!pose_only) {
        g_fake_now.fetch_add(6'000'000);  // past w's 5 ms deadline
        EXPECT_EQ(server.step(), 1);
        send_window(next);
      }
      EXPECT_EQ(expect_poses(server, a.id, sent), want_completed);
      if (overlapped && (w_dropped || !pose_only)) ++overlaps;
    }
    EXPECT_GT(overlaps, 0);
  }
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

/// Steps per submit round of the stepped parity run.  Window w's rounds
/// cycle through four patterns, so windows complete with every frame but
/// the last cached, none cached, some cached, and with feature passes
/// interleaved with batches.
int steps_after_round(int round, int frames) {
  const int window = round / frames;
  const int k = round % frames;
  switch (window % 4) {
    case 0: return 2;
    case 1: return 0;
    case 2: return k == 1 ? 2 : 0;
    default: return 1;
  }
}

/// Drained-server parity with the offline pipeline.  `stepped` calls
/// step() between submit rounds (steps_after_round), so windows reach
/// the batch with per-frame features already cached.
void expect_drained_parity(int threads, bool stepped = false) {
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
  const int frames = tiny_net().frames_per_sample();
  int round = 0;
  for (const auto& frame : recording.frames) {
    ASSERT_TRUE(server.submit(a.id, frame.cube).accepted);
    ASSERT_TRUE(server.submit(b.id, frame.cube).accepted);
    if (stepped)
      for (int i = 0; i < steps_after_round(round, frames); ++i) server.step();
    ++round;
  }
  server.drain();
  if (stepped) {
    // Every frame's features were computed exactly once, some early and
    // some in a batch, and some windows reached the batch with more than
    // its last frame missing.
    const auto stats = server.stats();
    const std::uint64_t windows = stats.windows_completed;
    EXPECT_EQ(stats.frames_featured_early + stats.frames_featured_in_batch,
              windows * static_cast<std::uint64_t>(frames));
    EXPECT_GT(stats.frames_featured_early, 0u);
    EXPECT_GT(stats.frames_featured_in_batch, windows);
  }

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

TEST(ServeParity, SteppedServerWithCachedFeaturesMatchesOneThread) {
  expect_drained_parity(1, /*stepped=*/true);
}

TEST(ServeParity, SteppedServerWithCachedFeaturesMatchesFourThreads) {
  expect_drained_parity(4, /*stepped=*/true);
}

TEST(ServeParity, ThreadedFeaturePassesRaceCompletionsPollAndLeave) {
  // The scheduler thread computes features while paced clients submit,
  // poll and leave, so feature passes race window completions, batches
  // and sessions ending mid-window.  Each window's last two frames go in
  // back to back.
  Rng rng(11);
  pose::HandJointRegressor model(tiny_net(), rng);
  const sim::Recording recording = tiny_recording(16);
  const std::vector<nn::Tensor> want = offline_windows(model, recording);
  const int frames = tiny_net().frames_per_sample();
  const auto n_windows = static_cast<std::uint64_t>(want.size());

  ServeConfig cfg;
  cfg.deadline_ms = 1e9;
  cfg.max_sessions = 4;
  cfg.queue_cap = 64;
  cfg.max_inflight = 256;
  cfg.batch_max = 3;
  Server server(cfg, model);
  std::atomic<std::uint64_t> compared{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Rng crng(static_cast<std::uint64_t>(200 + c));
      std::vector<serve::WindowResult> results;
      const auto check = [&](serve::SessionId id) {
        results.clear();
        server.poll(id, &results);
        for (const auto& r : results) {
          const nn::Tensor& expect = want[r.seq % n_windows];
          bool same = r.disposition == Disposition::kCompleted &&
                      r.pose.numel() == expect.numel();
          for (std::size_t e = 0; same && e < expect.numel(); ++e)
            same = r.pose[e] == expect[e];
          if (!same) failures.fetch_add(1);
          compared.fetch_add(1);
        }
      };
      for (int life = 0; life < 4; ++life) {
        const auto j = server.join();
        if (!j.admitted) {
          failures.fetch_add(1);
          return;
        }
        // Every life but the last ends with a leave() mid-window.
        const int windows = 12 + c;
        const int extra = life < 3 ? 1 + life % (frames - 1) : 0;
        for (int f = 0; f < windows * frames + extra; ++f) {
          const auto w = static_cast<std::size_t>(f / frames) % want.size();
          const auto& cube =
              recording.frames[w * static_cast<std::size_t>(frames) +
                               static_cast<std::size_t>(f % frames)]
                  .cube;
          if (!server.submit(j.id, cube).accepted) failures.fetch_add(1);
          if (f % frames != frames - 2)
            std::this_thread::sleep_for(std::chrono::microseconds(
                50 + static_cast<int>(crng.uniform() * 150)));
          if (f % frames == frames - 1) check(j.id);
        }
        if (life == 3) {
          server.drain();
          check(j.id);
        }
        server.leave(j.id);
      }
    });
  }
  for (auto& t : clients) t.join();
  server.drain();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = server.stats();
  EXPECT_GT(compared.load(), 0u);
  EXPECT_EQ(stats.windows_shed + stats.windows_missed, 0u);
  EXPECT_GT(stats.frames_featured_early, 0u);
  // Features are computed at most once per accepted frame (a pass whose
  // session left wastes its rows, nothing is computed twice).
  EXPECT_LE(stats.frames_featured_early + stats.frames_featured_in_batch,
            stats.frames_accepted);
  EXPECT_GE(stats.frames_featured_early + stats.frames_featured_in_batch,
            stats.windows_completed * static_cast<std::uint64_t>(frames));
  EXPECT_EQ(stats.ready_depth, 0);
  EXPECT_EQ(stats.inflight, 0);
}

// ---------------------------------------------------------------------------
// Memory: a served window moves its storage, it does not copy it.

TEST(ServeMemory, SteadyStateAllocatesUnderHalfAWindowPerWindow) {
  // Threaded scheduler.  A per-window copy of the raw frames, or pooled
  // buffers drifting between the submitting and the scheduler thread,
  // would cost at least a whole window of bytes per window.
  const pose::PoseNetConfig net = tiny_net();
  Rng rng(11);
  pose::HandJointRegressor model(net, rng);
  const sim::Recording recording = tiny_recording(16);
  const int frames = net.frames_per_sample();
  ServeConfig cfg;
  cfg.deadline_ms = 1e9;
  Server server(cfg, model);
  const auto a = server.join();
  ASSERT_TRUE(a.admitted);
  std::vector<serve::WindowResult> results;
  results.reserve(4);
  std::size_t next = 0;
  const auto serve_windows = [&](int n) {
    for (int w = 0; w < n; ++w) {
      for (int f = 0; f < frames; ++f) {
        const auto& cube =
            recording.frames[next++ % recording.frames.size()].cube;
        ASSERT_TRUE(server.submit(a.id, cube).accepted);
      }
      do {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        results.clear();
      } while (server.poll(a.id, &results) == 0);
      ASSERT_EQ(results[0].disposition, Disposition::kCompleted);
    }
  };
  serve_windows(50);  // warm-up: pools, free lists, queue capacity
  constexpr int kWindows = 200;
  obs::set_alloc_tracking(true);
  const obs::AllocCounts before = obs::alloc_counts();
  serve_windows(kWindows);
  const obs::AllocCounts after = obs::alloc_counts();
  obs::set_alloc_tracking(false);
  const double bytes_per_window =
      static_cast<double>(after.bytes - before.bytes) / kWindows;
  const double window_bytes = static_cast<double>(
      static_cast<std::size_t>(frames) * net.velocity_bins * net.range_bins *
      net.angle_bins * sizeof(float));
  EXPECT_LT(bytes_per_window, window_bytes / 2)
      << "one window's raw frames are " << window_bytes << " bytes";
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
