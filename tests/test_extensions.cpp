// Tests for the library extensions: the GRU layer, temporal-model
// variants, trajectory smoothing, and the gesture classifier.

#include <gtest/gtest.h>

#include <cmath>

#include "mmhand/nn/gradcheck.hpp"
#include "mmhand/nn/dropout.hpp"
#include "mmhand/nn/gru.hpp"
#include "mmhand/pose/gesture_classifier.hpp"
#include "mmhand/pose/joint_model.hpp"
#include "mmhand/pose/smoothing.hpp"
#include "mmhand/eval/csv_export.hpp"
#include <fstream>

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

hand::JointSet joints_at(double y) {
  hand::HandPose pose;
  pose.wrist_position = Vec3{0.0, y, 0.0};
  return hand::forward_kinematics(hand::HandProfile::reference(), pose);
}

TEST(EmaSmoother, FirstObservationPassesThrough) {
  pose::EmaSmoother ema(0.3);
  const auto j = joints_at(0.3);
  const auto out = ema.filter(j);
  EXPECT_NEAR(distance(out[0], j[0]), 0.0, 1e-12);
}

TEST(EmaSmoother, ConvergesToConstantInput) {
  pose::EmaSmoother ema(0.4);
  const auto target = joints_at(0.35);
  (void)ema.filter(joints_at(0.25));
  hand::JointSet out{};
  for (int i = 0; i < 40; ++i) out = ema.filter(target);
  EXPECT_LT(distance(out[0], target[0]), 1e-4);
}

TEST(EmaSmoother, RejectsBadAlpha) {
  EXPECT_THROW(pose::EmaSmoother(0.0), Error);
  EXPECT_THROW(pose::EmaSmoother(1.5), Error);
}

TEST(KalmanSmoother, ReducesNoiseOnStaticHand) {
  pose::JointKalmanSmoother kalman;
  const auto truth = joints_at(0.3);
  Rng rng(10);
  double raw_err = 0.0, filtered_err = 0.0;
  int n = 0;
  for (int i = 0; i < 100; ++i) {
    hand::JointSet noisy = truth;
    for (auto& j : noisy)
      j += Vec3{rng.normal(0, 0.01), rng.normal(0, 0.01),
                rng.normal(0, 0.01)};
    const auto filtered = kalman.filter(noisy);
    if (i < 10) continue;  // let the filter settle
    for (int k = 0; k < hand::kNumJoints; ++k) {
      raw_err += distance(noisy[static_cast<std::size_t>(k)],
                          truth[static_cast<std::size_t>(k)]);
      filtered_err += distance(filtered[static_cast<std::size_t>(k)],
                               truth[static_cast<std::size_t>(k)]);
      ++n;
    }
  }
  EXPECT_LT(filtered_err, 0.6 * raw_err);
}

TEST(KalmanSmoother, TracksConstantVelocityWithoutLag) {
  pose::KalmanConfig cfg;
  cfg.dt = 0.04;
  pose::JointKalmanSmoother kalman(cfg);
  // Hand gliding at 0.25 m/s along x.
  double final_err = 0.0;
  for (int i = 0; i < 80; ++i) {
    hand::JointSet truth = joints_at(0.3);
    for (auto& j : truth) j += Vec3{0.25 * cfg.dt * i, 0.0, 0.0};
    const auto filtered = kalman.filter(truth);
    if (i == 79) final_err = distance(filtered[0], truth[0]);
  }
  // A constant-velocity model converges to near-zero steady-state lag.
  EXPECT_LT(final_err, 0.004);
}

TEST(KalmanSmoother, SmoothPredictionsSortsByFrame) {
  std::vector<pose::FramePrediction> preds(3);
  preds[0].frame_index = 9;
  preds[1].frame_index = 3;
  preds[2].frame_index = 6;
  for (auto& p : preds) p.joints = joints_at(0.3);
  const auto smoothed = pose::smooth_predictions(preds);
  EXPECT_EQ(smoothed[0].frame_index, 3);
  EXPECT_EQ(smoothed[2].frame_index, 9);
}

TEST(GestureClassifier, PerfectSkeletonsClassifyCorrectly) {
  // Distinguishable subset (open_palm/count4/count5 intentionally overlap).
  const std::vector<hand::Gesture> vocab{
      hand::Gesture::kFist, hand::Gesture::kPoint, hand::Gesture::kCount2,
      hand::Gesture::kCount3, hand::Gesture::kOpenPalm,
      hand::Gesture::kPinch};
  pose::GestureClassifier classifier(vocab);
  const auto profile = hand::HandProfile::reference();
  for (hand::Gesture g : vocab) {
    hand::HandPose pose;
    pose.fingers = hand::gesture_articulation(g);
    pose.orientation = Quaternion::from_axis_angle({0, 0, 1}, 0.4);
    pose.wrist_position = Vec3{0.05, 0.28, 0.1};
    const auto joints = hand::forward_kinematics(profile, pose);
    EXPECT_EQ(classifier.classify(joints), g)
        << hand::gesture_name(g) << " misclassified";
  }
}

TEST(GestureClassifier, RobustToModerateJointNoise) {
  const std::vector<hand::Gesture> vocab{hand::Gesture::kFist,
                                         hand::Gesture::kOpenPalm,
                                         hand::Gesture::kPoint};
  pose::GestureClassifier classifier(vocab);
  const auto profile = hand::HandProfile::reference();
  Rng rng(11);
  int correct = 0, total = 0;
  for (hand::Gesture g : vocab)
    for (int trial = 0; trial < 20; ++trial) {
      hand::HandPose pose;
      pose.fingers = hand::gesture_articulation(g);
      auto joints = hand::forward_kinematics(profile, pose);
      for (auto& j : joints)
        j += Vec3{rng.normal(0, 0.008), rng.normal(0, 0.008),
                  rng.normal(0, 0.008)};
      if (classifier.classify(joints) == g) ++correct;
      ++total;
    }
  EXPECT_GT(correct, total * 8 / 10);
}

TEST(GestureClassifier, CostIsLowerForTheTrueGesture) {
  pose::GestureClassifier classifier;
  const auto profile = hand::HandProfile::reference();
  hand::HandPose pose;
  pose.fingers = hand::gesture_articulation(hand::Gesture::kFist);
  const auto joints = hand::forward_kinematics(profile, pose);
  EXPECT_LT(classifier.cost(joints, hand::Gesture::kFist),
            classifier.cost(joints, hand::Gesture::kOpenPalm));
}

TEST(ConfusionMatrix, AccuracyAndCounts) {
  const std::vector<hand::Gesture> vocab{hand::Gesture::kFist,
                                         hand::Gesture::kOpenPalm};
  pose::ConfusionMatrix cm(vocab);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.0);
  cm.add(hand::Gesture::kFist, hand::Gesture::kFist);
  cm.add(hand::Gesture::kFist, hand::Gesture::kOpenPalm);
  cm.add(hand::Gesture::kOpenPalm, hand::Gesture::kOpenPalm);
  EXPECT_EQ(cm.count(hand::Gesture::kFist, hand::Gesture::kFist), 1);
  EXPECT_EQ(cm.count(hand::Gesture::kFist, hand::Gesture::kOpenPalm), 1);
  EXPECT_NEAR(cm.accuracy(), 2.0 / 3.0, 1e-12);
  EXPECT_THROW(cm.add(hand::Gesture::kPinch, hand::Gesture::kFist), Error);
}


TEST(Dropout, InferenceIsIdentity) {
  Rng rng(20);
  nn::Dropout drop(0.5, rng);
  const nn::Tensor x = random_tensor({3, 8}, rng);
  const nn::Tensor y = drop.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainingDropsAndRescales) {
  Rng rng(21);
  nn::Dropout drop(0.5, rng);
  const nn::Tensor x = nn::Tensor::full({1, 2000}, 1.0f);
  const nn::Tensor y = drop.forward(x, true);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f)
      ++zeros;
    else
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // 1/(1-0.5)
    sum += y[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.5, 0.05);
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.1);  // expectation preserved
}

TEST(Dropout, BackwardMasksGradients) {
  Rng rng(22);
  nn::Dropout drop(0.3, rng);
  const nn::Tensor x = random_tensor({2, 16}, rng);
  const nn::Tensor y = drop.forward(x, true);
  const nn::Tensor g = drop.backward(nn::Tensor::full({2, 16}, 1.0f));
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f)
      EXPECT_EQ(g[i], 0.0f);
    else
      EXPECT_GT(g[i], 1.0f);
  }
}

TEST(Dropout, RejectsBadRateAndUntrainedBackward) {
  Rng rng(23);
  EXPECT_THROW(nn::Dropout(1.0, rng), Error);
  EXPECT_THROW(nn::Dropout(-0.1, rng), Error);
  nn::Dropout drop(0.5, rng);
  (void)drop.forward(random_tensor({1, 4}, rng), false);
  EXPECT_THROW(drop.backward(nn::Tensor::full({1, 4}, 1.0f)), Error);
}

TEST(CsvExport, WritesEscapedTable) {
  const std::string path = ::testing::TempDir() + "/table.csv";
  eval::CsvWriter csv({"name", "value"});
  csv.add_row({std::string("plain"), std::string("1.0")});
  csv.add_row({std::string("with,comma"), std::string("quote\"inside")});
  csv.add_row(std::vector<double>{3.14159, 2.5}, 2);
  csv.write(path);

  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,1.0");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\",\"quote\"\"inside\"");
  std::getline(in, line);
  EXPECT_EQ(line, "3.14,2.50");
  std::remove(path.c_str());
}

TEST(CsvExport, RejectsMismatchedRows) {
  eval::CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.add_row({std::string("only-one")}), Error);
}

}  // namespace
}  // namespace mmhand
