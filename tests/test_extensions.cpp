// Tests for the temporal-layer variants: the GRU layer and the
// LSTM/GRU/none choice in HandJointRegressor (the temporal ablation).

#include <gtest/gtest.h>

#include <cstdio>

#include "mmhand/nn/gradcheck.hpp"
#include "mmhand/nn/gru.hpp"
#include "mmhand/pose/joint_model.hpp"

namespace mmhand {
namespace {

nn::Tensor random_tensor(std::vector<int> shape, Rng& rng,
                         double scale = 1.0) {
  nn::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform(-scale, scale));
  return t;
}

TEST(Gru, OutputShapeAndBoundedness) {
  Rng rng(1);
  nn::Gru gru(4, 6, rng);
  const nn::Tensor x = random_tensor({5, 4}, rng, 2.0);
  const nn::Tensor y = gru.forward(x, false);
  EXPECT_EQ(y.dim(0), 5);
  EXPECT_EQ(y.dim(1), 6);
  // GRU hidden states are convex blends of tanh outputs: within (-1, 1).
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_GT(y[i], -1.0f);
    EXPECT_LT(y[i], 1.0f);
  }
}

TEST(Gru, GradCheck) {
  Rng rng(2);
  nn::Gru gru(3, 4, rng);
  const nn::Tensor x = random_tensor({4, 3}, rng);
  Rng check_rng(3);
  const auto in_res = nn::check_input_gradient(gru, x, check_rng);
  EXPECT_LT(in_res.max_rel_error, 5e-2);
  EXPECT_LT(in_res.max_abs_error, 1e-2);
  Rng check_rng2(4);
  const auto par_res = nn::check_parameter_gradients(gru, x, check_rng2);
  EXPECT_LT(par_res.max_rel_error, 5e-2);
  EXPECT_LT(par_res.max_abs_error, 1e-2);
}

TEST(Gru, StateResetsBetweenSequences) {
  Rng rng(5);
  nn::Gru gru(2, 3, rng);
  const nn::Tensor x = random_tensor({3, 2}, rng);
  const nn::Tensor y1 = gru.forward(x, false);
  const nn::Tensor y2 = gru.forward(x, false);
  for (std::size_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(TemporalVariants, AllKindsForwardAndTrain) {
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

  for (pose::TemporalKind kind :
       {pose::TemporalKind::kLstm, pose::TemporalKind::kGru,
        pose::TemporalKind::kNone}) {
    cfg.temporal = kind;
    Rng rng(6);
    pose::HandJointRegressor model(cfg, rng);
    Rng xrng(7);
    const nn::Tensor x = random_tensor(
        {cfg.frames_per_sample(), cfg.velocity_bins, cfg.range_bins,
         cfg.angle_bins},
        xrng);
    const nn::Tensor y = model.forward(x, true);
    EXPECT_EQ(y.dim(0), cfg.sequence_segments);
    EXPECT_EQ(y.dim(1), 63);
    nn::Tensor g({cfg.sequence_segments, 63});
    g.fill(0.01f);
    EXPECT_NO_THROW(model.backward(g));
    EXPECT_FALSE(model.parameters().empty());
  }
}

TEST(TemporalVariants, CheckpointRejectsKindMismatch) {
  const std::string path = ::testing::TempDir() + "/temporal_kind.bin";
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

  Rng rng(8);
  pose::HandJointRegressor lstm_model(cfg, rng);
  lstm_model.save(path);
  cfg.temporal = pose::TemporalKind::kGru;
  Rng rng2(9);
  pose::HandJointRegressor gru_model(cfg, rng2);
  EXPECT_THROW(gru_model.load(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mmhand
