// Tests for the run-record subsystem: JSONL validity of what the trainer
// emits, the numerical-health watchdog (warn counts, fatal throws), and
// the bitwise-noninterference guarantee (training outputs identical with
// the run log on or off).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "mmhand/common/json.hpp"
#include "mmhand/hand/kinematics.hpp"
#include "mmhand/nn/optimizer.hpp"
#include "mmhand/nn/tensor_stats.hpp"
#include "mmhand/obs/obs.hpp"
#include "mmhand/pose/trainer.hpp"

namespace mmhand {
namespace {

/// Restores run-log and watchdog globals on scope exit so tests cannot
/// leak state into each other.
struct ObsStateGuard {
  ~ObsStateGuard() {
    obs::set_run_log_enabled(false);
    obs::reset_run_log();
    obs::set_numeric_check_mode(obs::NumericCheckMode::kOff);
  }
};

nn::Tensor random_tensor(std::vector<int> shape, Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Tiny network geometry so training tests run in milliseconds (mirrors
/// tests/test_pose.cpp).
pose::PoseNetConfig tiny_config() {
  pose::PoseNetConfig cfg;
  cfg.segment_frames = 1;
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

std::vector<pose::PoseSample> tiny_samples(const pose::PoseNetConfig& cfg,
                                           std::uint64_t seed) {
  hand::HandPose pose;
  const auto base_joints =
      hand::forward_kinematics(hand::HandProfile::reference(), pose);
  Rng rng(seed);
  std::vector<pose::PoseSample> samples;
  for (int k = 0; k < 3; ++k) {
    pose::PoseSample s;
    s.input = random_tensor({cfg.frames_per_sample(), cfg.velocity_bins,
                             cfg.range_bins, cfg.angle_bins},
                            rng);
    s.labels = nn::Tensor({cfg.sequence_segments, 63});
    for (int row = 0; row < cfg.sequence_segments; ++row)
      for (int j = 0; j < hand::kNumJoints; ++j) {
        const Vec3 p = base_joints[static_cast<std::size_t>(j)];
        s.labels.at(row, 3 * j) = static_cast<float>(p.x + 0.01 * k);
        s.labels.at(row, 3 * j + 1) = static_cast<float>(p.y);
        s.labels.at(row, 3 * j + 2) = static_cast<float>(p.z);
      }
    s.oracle = s.labels;
    samples.push_back(std::move(s));
  }
  return samples;
}

std::vector<json::Value> parse_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<json::Value> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string error;
    json::Value v = json::Value::parse(line, &error);
    EXPECT_TRUE(error.empty()) << error << " in line: " << line;
    EXPECT_TRUE(v.is_object()) << line;
    records.push_back(std::move(v));
  }
  return records;
}

TEST(Json, ParsesEmittedRecordShapes) {
  std::string error;
  const json::Value v = json::Value::parse(
      R"({"kind": "epoch", "loss": 0.5, "nested": {"a": [1, -2.5e3, true]},)"
      R"( "name": "linéar \"w\""})",
      &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(v.string_or("kind", ""), "epoch");
  EXPECT_DOUBLE_EQ(v.number_or("loss", 0.0), 0.5);
  const json::Value* nested = v.find("nested");
  ASSERT_NE(nested, nullptr);
  const json::Value* arr = nested->find("a");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(arr->as_array()[1].as_number(), -2500.0);
  EXPECT_TRUE(arr->as_array()[2].as_bool());
  EXPECT_EQ(v.string_or("name", ""), "lin\xC3\xA9"
                                     "ar \"w\"");
}

TEST(Json, RejectsMalformedInput) {
  // The last case nests past the parser's depth cap: it must fail with an
  // error, not overflow the stack.
  for (const std::string& bad :
       {std::string("{"), std::string("[1,]"), std::string("{\"a\": }"),
        std::string("tru"), std::string("1 2"), std::string(),
        std::string(100000, '[')}) {
    std::string error;
    json::Value::parse(bad, &error);
    EXPECT_FALSE(error.empty()) << "accepted: " << bad.substr(0, 16);
  }
}

TEST(RunRecord, EmitsParseableJsonIncludingNonFinite) {
  obs::RunRecord rec("unit");
  rec.field("i", 42)
      .field("pi", 3.25)
      .field("flag", true)
      .field("bad", std::nan(""))
      .field("big", std::numeric_limits<double>::infinity())
      .field("text", "quote \" backslash \\ newline \n done")
      .raw("vec", "[1, 2, 3]");
  std::string error;
  const json::Value v = json::Value::parse(rec.json(), &error);
  ASSERT_TRUE(error.empty()) << error << ": " << rec.json();
  EXPECT_EQ(v.string_or("kind", ""), "unit");
  EXPECT_DOUBLE_EQ(v.number_or("i", 0.0), 42.0);
  EXPECT_DOUBLE_EQ(v.number_or("pi", 0.0), 3.25);
  // Non-finite numbers are encoded as strings so lines stay legal JSON.
  EXPECT_EQ(v.string_or("bad", ""), "NaN");
  EXPECT_EQ(v.string_or("big", ""), "Inf");
  EXPECT_EQ(v.string_or("text", ""), "quote \" backslash \\ newline \n done");
  const json::Value* vec = v.find("vec");
  ASSERT_NE(vec, nullptr);
  ASSERT_TRUE(vec->is_array());
  EXPECT_EQ(vec->as_array().size(), 3u);
  EXPECT_TRUE(v.find("t_ms") != nullptr);
}

TEST(RunLog, TrainingEmitsManifestEpochsAndStats) {
  ObsStateGuard guard;
  const std::string path = ::testing::TempDir() + "/runlog_train.jsonl";
  std::remove(path.c_str());
  obs::reset_run_log();
  obs::set_run_log_path(path);
  ASSERT_TRUE(obs::runlog_enabled());

  const auto cfg = tiny_config();
  Rng rng(21);
  pose::HandJointRegressor model(cfg, rng);
  pose::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 2;
  const auto samples = tiny_samples(cfg, 22);
  pose::train_pose_model(model, samples, tc);

  obs::set_run_log_enabled(false);
  const auto records = parse_jsonl_file(path);
  ASSERT_GE(records.size(), 4u);  // manifest + 3 epochs

  const json::Value& manifest = records.front();
  EXPECT_EQ(manifest.string_or("kind", ""), "manifest");
  EXPECT_EQ(manifest.string_or("run", ""), "train_pose_model");
  EXPECT_DOUBLE_EQ(manifest.number_or("epochs", 0.0), 3.0);
  EXPECT_DOUBLE_EQ(manifest.number_or("samples", 0.0), 3.0);
  EXPECT_GT(manifest.number_or("param_count", 0.0), 0.0);
  EXPECT_GE(manifest.number_or("threads", -1.0), 1.0);

  int epochs_seen = 0;
  for (const json::Value& r : records) {
    if (r.string_or("kind", "") != "epoch") continue;
    EXPECT_DOUBLE_EQ(r.number_or("epoch", -1.0), epochs_seen);
    ++epochs_seen;
    EXPECT_GT(r.number_or("loss", -1.0), 0.0);
    EXPECT_GT(r.number_or("lr_scale", -1.0), 0.0);
    // Gradient norm of the final accumulated batch must be present and
    // finite on a healthy run.
    EXPECT_GT(r.number_or("grad_norm", -1.0), 0.0);
    // Per-parameter-group stats with nan/inf counts.
    const json::Value* params = r.find("params");
    ASSERT_NE(params, nullptr);
    ASSERT_TRUE(params->is_object());
    EXPECT_FALSE(params->as_object().empty());
    for (const auto& [name, group] : params->as_object()) {
      for (const char* which : {"weight", "grad"}) {
        const json::Value* stats = group.find(which);
        ASSERT_NE(stats, nullptr) << name << "." << which;
        EXPECT_DOUBLE_EQ(stats->number_or("nan", -1.0), 0.0);
        EXPECT_DOUBLE_EQ(stats->number_or("inf", -1.0), 0.0);
        EXPECT_GT(stats->number_or("count", 0.0), 0.0);
        EXPECT_GE(stats->number_or("rms", -1.0), 0.0);
      }
    }
  }
  EXPECT_EQ(epochs_seen, 3);
}

TEST(NumericWatchdog, WarnModeCountsNanGradients) {
  ObsStateGuard guard;
  obs::set_numeric_check_mode(obs::NumericCheckMode::kWarn);
  ASSERT_TRUE(obs::numeric_check_enabled());

  nn::Parameter p(nn::Tensor::zeros({4}), "unit.weight");
  p.grad[0] = std::numeric_limits<float>::quiet_NaN();
  p.grad[1] = 1.0f;
  nn::Adam opt({&p});

  const std::int64_t before = obs::numeric_anomaly_count();
  EXPECT_NO_THROW(opt.step());
  EXPECT_GT(obs::numeric_anomaly_count(), before);
}

TEST(NumericWatchdog, WarnModeCountsInfParameters) {
  ObsStateGuard guard;
  obs::set_numeric_check_mode(obs::NumericCheckMode::kWarn);

  nn::Parameter p(nn::Tensor::zeros({4}), "unit.weight");
  p.value[2] = std::numeric_limits<float>::infinity();
  p.grad[0] = 0.5f;
  nn::Adam opt({&p});

  const std::int64_t before = obs::numeric_anomaly_count();
  EXPECT_NO_THROW(opt.step());
  EXPECT_GT(obs::numeric_anomaly_count(), before);
}

TEST(NumericWatchdog, FatalModeThrowsOnNanGradient) {
  ObsStateGuard guard;
  obs::set_numeric_check_mode(obs::NumericCheckMode::kFatal);

  nn::Parameter p(nn::Tensor::zeros({4}), "unit.weight");
  p.grad[0] = std::numeric_limits<float>::quiet_NaN();
  nn::Adam opt({&p});
  EXPECT_THROW(opt.step(), Error);
}

TEST(NumericWatchdog, OffModeIgnoresNan) {
  ObsStateGuard guard;
  obs::set_numeric_check_mode(obs::NumericCheckMode::kOff);

  nn::Parameter p(nn::Tensor::zeros({4}), "unit.weight");
  p.grad[0] = std::numeric_limits<float>::quiet_NaN();
  nn::Adam opt({&p});
  const std::int64_t before = obs::numeric_anomaly_count();
  EXPECT_NO_THROW(opt.step());
  EXPECT_EQ(obs::numeric_anomaly_count(), before);
}

TEST(NumericWatchdog, CheckFiniteScalar) {
  ObsStateGuard guard;
  obs::set_numeric_check_mode(obs::NumericCheckMode::kWarn);
  EXPECT_TRUE(obs::check_finite_scalar("unit/test", 1.5, "ok"));
  const std::int64_t before = obs::numeric_anomaly_count();
  EXPECT_FALSE(obs::check_finite_scalar("unit/test", std::nan(""), "bad"));
  EXPECT_FALSE(obs::check_finite_scalar(
      "unit/test", std::numeric_limits<double>::infinity(), "bad"));
  EXPECT_EQ(obs::numeric_anomaly_count(), before + 2);
}

TEST(TensorStats, CountsAndMoments) {
  nn::Tensor t({6});
  t[0] = 1.0f;
  t[1] = -3.0f;
  t[2] = std::numeric_limits<float>::quiet_NaN();
  t[3] = std::numeric_limits<float>::infinity();
  t[4] = 2.0f;
  t[5] = 0.0f;
  const auto s = nn::tensor_stats(t);
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.nan_count, 1u);
  EXPECT_EQ(s.inf_count, 1u);
  EXPECT_FALSE(s.all_finite());
  EXPECT_DOUBLE_EQ(s.min, -3.0);
  EXPECT_DOUBLE_EQ(s.max, 2.0);
  // rms over the 4 finite values: sqrt((1+9+4+0)/4)
  EXPECT_NEAR(s.rms, std::sqrt(14.0 / 4.0), 1e-12);
}

TEST(RunLog, DoesNotPerturbTraining) {
  // The acceptance bar for the whole subsystem: a run with MMHAND_RUN_LOG
  // and the watchdog on must be bitwise identical to a run without.
  ObsStateGuard guard;
  const auto cfg = tiny_config();
  const auto samples = tiny_samples(cfg, 31);
  pose::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 2;

  obs::set_run_log_enabled(false);
  obs::set_numeric_check_mode(obs::NumericCheckMode::kOff);
  Rng rng_off(30);
  pose::HandJointRegressor plain(cfg, rng_off);
  const auto stats_off = pose::train_pose_model(plain, samples, tc);

  const std::string path = ::testing::TempDir() + "/runlog_determinism.jsonl";
  std::remove(path.c_str());
  obs::reset_run_log();
  obs::set_run_log_path(path);
  obs::set_numeric_check_mode(obs::NumericCheckMode::kWarn);
  Rng rng_on(30);
  pose::HandJointRegressor logged(cfg, rng_on);
  const auto stats_on = pose::train_pose_model(logged, samples, tc);
  obs::set_run_log_enabled(false);
  obs::set_numeric_check_mode(obs::NumericCheckMode::kOff);

  ASSERT_EQ(stats_off.epoch_loss.size(), stats_on.epoch_loss.size());
  for (std::size_t e = 0; e < stats_off.epoch_loss.size(); ++e)
    EXPECT_EQ(stats_off.epoch_loss[e], stats_on.epoch_loss[e]) << "epoch " << e;

  for (const auto& sample : samples) {
    const nn::Tensor a = pose::predict_sample(plain, sample);
    const nn::Tensor b = pose::predict_sample(logged, sample);
    ASSERT_EQ(a.numel(), b.numel());
    for (std::size_t i = 0; i < a.numel(); ++i)
      EXPECT_EQ(a[i], b[i]) << "prediction diverged at " << i;
  }

  // And the instrumented run really did log.
  const auto records = parse_jsonl_file(path);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().string_or("kind", ""), "manifest");
}

}  // namespace
}  // namespace mmhand
