// Tests for mmhand/pose: mmSpaceNet gradients, the kinematic loss, sample
// assembly, cube-frame normalization against an nth_element oracle,
// training convergence on a tiny problem, and checkpointing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "mmhand/hand/kinematics.hpp"
#include "mmhand/nn/gradcheck.hpp"
#include "mmhand/pose/inference.hpp"
#include "mmhand/pose/joint_model.hpp"
#include "mmhand/pose/kinematic_loss.hpp"
#include "mmhand/pose/mmspacenet.hpp"
#include "mmhand/pose/samples.hpp"
#include "mmhand/pose/trainer.hpp"
#include "mmhand/radar/antenna_array.hpp"
#include "mmhand/radar/chirp_config.hpp"
#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/pipeline.hpp"

namespace mmhand::pose {
namespace {

nn::Tensor random_tensor(std::vector<int> shape, Rng& rng,
                         double scale = 1.0) {
  nn::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform(-scale, scale));
  return t;
}

/// Tiny network geometry so tests run in milliseconds.
PoseNetConfig tiny_config() {
  PoseNetConfig cfg;
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

nn::Tensor joints_to_row63(const hand::JointSet& joints) {
  nn::Tensor t({63});
  for (int j = 0; j < hand::kNumJoints; ++j) {
    t[static_cast<std::size_t>(3 * j)] =
        static_cast<float>(joints[static_cast<std::size_t>(j)].x);
    t[static_cast<std::size_t>(3 * j + 1)] =
        static_cast<float>(joints[static_cast<std::size_t>(j)].y);
    t[static_cast<std::size_t>(3 * j + 2)] =
        static_cast<float>(joints[static_cast<std::size_t>(j)].z);
  }
  return t;
}

TEST(ResidualAttentionBlock, PreservesSpatialExtent) {
  Rng rng(1);
  ResidualAttentionBlock block(3, 5, rng);
  const nn::Tensor x = random_tensor({2, 3, 8, 8}, rng);
  const nn::Tensor y = block.forward(x, false);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 5);
  EXPECT_EQ(y.dim(2), 8);
  EXPECT_EQ(y.dim(3), 8);
}

TEST(ResidualAttentionBlock, GradCheck) {
  Rng rng(2);
  ResidualAttentionBlock block(2, 3, rng);
  const nn::Tensor x = random_tensor({2, 2, 4, 4}, rng);
  Rng check_rng(3);
  const auto res = nn::check_input_gradient(block, x, check_rng);
  EXPECT_LT(res.max_rel_error, 5e-2);
  EXPECT_LT(res.max_abs_error, 1e-2);
}

TEST(ResidualAttentionBlock, AttentionSwitchesDisablePaths) {
  Rng rng(4);
  AttentionSwitches off{false, false, false};
  ResidualAttentionBlock plain(2, 3, rng, off);
  const nn::Tensor x = random_tensor({1, 2, 4, 4}, rng);
  EXPECT_NO_THROW(plain.forward(x, false));
  // Fewer parameters without the attention stack... parameters are still
  // constructed but unused; the forward path must differ from the
  // attention-enabled block given identical weights is impractical to set
  // up, so we simply check both run and produce the right shape.
  Rng rng2(4);
  ResidualAttentionBlock withatt(2, 3, rng2);
  const nn::Tensor ya = plain.forward(x, false);
  const nn::Tensor yb = withatt.forward(x, false);
  EXPECT_TRUE(ya.same_shape(yb));
}

TEST(ResidualAttentionBlock, RejectsIndivisibleExtents) {
  Rng rng(5);
  ResidualAttentionBlock block(2, 3, rng);
  const nn::Tensor x = random_tensor({1, 2, 6, 6}, rng);
  EXPECT_THROW(block.forward(x, false), Error);
}

TEST(MmSpaceNet, OutputGeometry) {
  Rng rng(6);
  MmSpaceNetConfig cfg;
  cfg.input_channels = 4;
  cfg.stem_channels = 4;
  cfg.block1_channels = 6;
  cfg.block2_channels = 8;
  MmSpaceNet net(cfg, rng);
  const nn::Tensor x = random_tensor({3, 4, 16, 16}, rng);
  const nn::Tensor y = net.forward(x, false);
  EXPECT_EQ(y.dim(0), 3);
  EXPECT_EQ(y.dim(1), 8);
  EXPECT_EQ(y.dim(2), 4);  // 16 / kSpatialReduction
  EXPECT_EQ(y.dim(3), 4);
}

TEST(KinematicLoss, StraightGtFingerSelectsCollinear) {
  hand::HandPose straight;
  const auto joints =
      hand::forward_kinematics(hand::HandProfile::reference(), straight);
  const auto gt = joints_to_row63(joints);
  for (int f = 1; f < hand::kNumFingers; ++f)  // thumb is pre-bent
    EXPECT_TRUE(finger_is_collinear(gt, f)) << "finger " << f;
}

TEST(KinematicLoss, CurledGtFingerSelectsCoplanar) {
  hand::HandPose fist;
  fist.fingers = hand::gesture_articulation(hand::Gesture::kFist);
  const auto joints =
      hand::forward_kinematics(hand::HandProfile::reference(), fist);
  const auto gt = joints_to_row63(joints);
  for (int f = 1; f < hand::kNumFingers; ++f)
    EXPECT_FALSE(finger_is_collinear(gt, f)) << "finger " << f;
}

TEST(KinematicLoss, PerfectPredictionHasNearZeroLoss) {
  hand::HandPose pose;
  pose.fingers = hand::gesture_articulation(hand::Gesture::kCount3);
  const auto joints =
      hand::forward_kinematics(hand::HandProfile::reference(), pose);
  const auto gt = joints_to_row63(joints);
  const auto res = kinematic_loss(gt, gt);
  // The FK generator produces exactly collinear/coplanar fingers, so a
  // perfect prediction violates nothing (tiny numerical slack allowed).
  EXPECT_LT(res.value, 0.05);
}

TEST(KinematicLoss, PerturbedPredictionIsPenalized) {
  hand::HandPose pose;
  const auto joints =
      hand::forward_kinematics(hand::HandProfile::reference(), pose);
  const auto gt = joints_to_row63(joints);
  nn::Tensor pred = gt;
  // Push the index PIP joint out of the finger line.
  pred[static_cast<std::size_t>(3 * 6 + 2)] += 0.03f;
  const auto clean = kinematic_loss(gt, gt);
  const auto bent = kinematic_loss(pred, gt);
  EXPECT_GT(bent.value, clean.value + 0.01);
}

TEST(KinematicLoss, NumericGradient) {
  hand::HandPose pose;
  pose.fingers = hand::gesture_articulation(hand::Gesture::kPinch);
  const auto joints =
      hand::forward_kinematics(hand::HandProfile::reference(), pose);
  const auto gt = joints_to_row63(joints);
  Rng rng(7);
  nn::Tensor pred = gt;
  for (std::size_t i = 0; i < pred.numel(); ++i)
    pred[i] += static_cast<float>(rng.uniform(-0.02, 0.02));

  const auto res = kinematic_loss(pred, gt);
  const double eps = 1e-4;
  for (std::size_t i = 0; i < pred.numel(); i += 5) {
    const float orig = pred[i];
    pred[i] = orig + static_cast<float>(eps);
    const double plus = kinematic_loss(pred, gt).value;
    pred[i] = orig - static_cast<float>(eps);
    const double minus = kinematic_loss(pred, gt).value;
    pred[i] = orig;
    EXPECT_NEAR(res.grad[i], (plus - minus) / (2 * eps), 5e-3)
        << "coordinate " << i;
  }
}

TEST(CombinedLoss, WeightsBlendBothTerms) {
  hand::HandPose pose;
  const auto joints =
      hand::forward_kinematics(hand::HandProfile::reference(), pose);
  const auto gt = joints_to_row63(joints);
  nn::Tensor pred = gt;
  pred[0] += 0.05f;
  pred[20] += 0.04f;

  CombinedLossConfig only_3d{1.0, 0.0, {}};
  CombinedLossConfig both{1.0, 0.5, {}};
  const auto a = combined_pose_loss(pred, gt, only_3d);
  const auto b = combined_pose_loss(pred, gt, both);
  const auto l3d = nn::joint_l2_loss(pred, gt);
  EXPECT_NEAR(a.value, l3d.value, 1e-9);
  EXPECT_GE(b.value, a.value);
}

TEST(PoseNetConfig, ValidateCatchesBadGeometry) {
  PoseNetConfig cfg = tiny_config();
  cfg.range_bins = 10;  // not divisible by 4
  EXPECT_THROW(cfg.validate(), Error);
  cfg = tiny_config();
  cfg.segment_frames = 0;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(HandJointRegressor, ForwardShapeAndDeterminism) {
  Rng rng(8);
  const auto cfg = tiny_config();
  HandJointRegressor model(cfg, rng);
  Rng xrng(9);
  const nn::Tensor x = random_tensor(
      {cfg.frames_per_sample(), cfg.velocity_bins, cfg.range_bins,
       cfg.angle_bins},
      xrng);
  const nn::Tensor y1 = model.forward(x, false);
  const nn::Tensor y2 = model.forward(x, false);
  EXPECT_EQ(y1.dim(0), cfg.sequence_segments);
  EXPECT_EQ(y1.dim(1), 63);
  for (std::size_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(HandJointRegressor, RejectsWrongInputShape) {
  Rng rng(10);
  HandJointRegressor model(tiny_config(), rng);
  Rng xrng(11);
  const nn::Tensor bad = random_tensor({1, 4, 8, 8}, xrng);
  EXPECT_THROW(model.forward(bad, false), Error);
}

TEST(HandJointRegressor, OverfitsATinyDataset) {
  // End-to-end learning check: with a handful of samples the full model
  // (hourglass + attention + LSTM + combined loss) must drive the training
  // loss down substantially.
  Rng rng(12);
  const auto cfg = tiny_config();
  HandJointRegressor model(cfg, rng);

  hand::HandPose pose;
  const auto base_joints =
      hand::forward_kinematics(hand::HandProfile::reference(), pose);
  Rng data_rng(13);
  std::vector<PoseSample> samples;
  for (int k = 0; k < 4; ++k) {
    PoseSample s;
    s.input = random_tensor({cfg.frames_per_sample(), cfg.velocity_bins,
                             cfg.range_bins, cfg.angle_bins},
                            data_rng);
    s.labels = nn::Tensor({cfg.sequence_segments, 63});
    for (int row = 0; row < cfg.sequence_segments; ++row)
      for (int j = 0; j < hand::kNumJoints; ++j) {
        const Vec3 p = base_joints[static_cast<std::size_t>(j)] +
                       Vec3{0.01 * k, 0.005 * k, -0.004 * k};
        s.labels.at(row, 3 * j) = static_cast<float>(p.x);
        s.labels.at(row, 3 * j + 1) = static_cast<float>(p.y);
        s.labels.at(row, 3 * j + 2) = static_cast<float>(p.z);
      }
    s.oracle = s.labels;
    samples.push_back(std::move(s));
  }

  TrainConfig tc;
  tc.epochs = 60;
  tc.batch_size = 2;
  tc.lr = 2e-3;
  const auto stats = train_pose_model(model, samples, tc);
  ASSERT_EQ(stats.epoch_loss.size(), 60u);
  EXPECT_LT(stats.epoch_loss.back(), 0.55 * stats.epoch_loss.front())
      << "first=" << stats.epoch_loss.front()
      << " last=" << stats.epoch_loss.back();
}

TEST(HandJointRegressor, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/pose_model.bin";
  Rng rng(14);
  const auto cfg = tiny_config();
  HandJointRegressor a(cfg, rng);
  Rng rng2(15);
  HandJointRegressor b(cfg, rng2);
  a.save(path);
  b.load(path);
  Rng xrng(16);
  const nn::Tensor x = random_tensor(
      {cfg.frames_per_sample(), cfg.velocity_bins, cfg.range_bins,
       cfg.angle_bins},
      xrng);
  const nn::Tensor ya = a.forward(x, false);
  const nn::Tensor yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
  std::remove(path.c_str());
}

TEST(HandJointRegressor, LoadRejectsGeometryMismatch) {
  const std::string path = ::testing::TempDir() + "/pose_model_bad.bin";
  Rng rng(17);
  HandJointRegressor a(tiny_config(), rng);
  a.save(path);
  auto other = tiny_config();
  other.sequence_segments = 3;
  Rng rng2(18);
  HandJointRegressor b(other, rng2);
  EXPECT_THROW(b.load(path), Error);
  std::remove(path.c_str());
}

class SampleBuildingTest : public ::testing::Test {
 protected:
  static sim::Recording tiny_recording(int frames) {
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
  static PoseNetConfig matching_config() {
    PoseNetConfig cfg = tiny_config();
    cfg.velocity_bins = 4;
    cfg.range_bins = 8;
    cfg.angle_bins = 8;
    cfg.segment_frames = 2;
    cfg.sequence_segments = 2;
    return cfg;
  }
};

TEST_F(SampleBuildingTest, WindowsAndLabelsAlign) {
  const auto rec = tiny_recording(10);
  const auto cfg = matching_config();
  const auto samples = make_pose_samples(rec, cfg);
  ASSERT_EQ(samples.size(), 2u);  // 10 frames / window of 4 -> 2 windows
  // Labels map to the last frame of each segment.
  EXPECT_EQ(samples[0].label_frames, (std::vector<int>{1, 3}));
  EXPECT_EQ(samples[1].label_frames, (std::vector<int>{5, 7}));
  // Label contents match the recording.
  const auto joints = row_to_joints(samples[0].labels, 1);
  EXPECT_NEAR(distance(joints[0], rec.frames[3].joints[0]), 0.0, 1e-6);
}

TEST_F(SampleBuildingTest, StrideControlsOverlap) {
  const auto rec = tiny_recording(10);
  const auto cfg = matching_config();
  const auto dense = make_pose_samples(rec, cfg, 1);
  EXPECT_EQ(dense.size(), 7u);  // 10 - 4 + 1
}

TEST_F(SampleBuildingTest, LabelMeanIsReasonable) {
  const auto rec = tiny_recording(8);
  const auto cfg = matching_config();
  const auto samples = make_pose_samples(rec, cfg);
  const auto mean = label_mean(samples);
  // The hand is around y = 0.3 m; the mean y coordinate must reflect that.
  double mean_y = 0.0;
  for (int j = 0; j < 21; ++j) mean_y += mean[static_cast<std::size_t>(3 * j + 1)];
  mean_y /= 21.0;
  EXPECT_NEAR(mean_y, 0.3, 0.1);
}

TEST_F(SampleBuildingTest, PredictRecordingCoversSegmentEnds) {
  const auto rec = tiny_recording(10);
  const auto cfg = matching_config();
  Rng rng(19);
  HandJointRegressor model(cfg, rng);
  const auto preds = predict_recording(model, rec);
  ASSERT_EQ(preds.size(), 4u);  // 2 windows x 2 segments
  EXPECT_EQ(preds[0].frame_index, 1);
  EXPECT_EQ(preds[3].frame_index, 7);
  for (const auto& p : preds) {
    // Ground truth carried through for evaluation.
    EXPECT_NEAR(
        distance(p.ground_truth[0],
                 rec.frames[static_cast<std::size_t>(p.frame_index)].joints[0]),
        0.0, 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Cube-frame normalization: the noise floor is element n/2 of the cells in
// float order, whatever selects it.  The oracle selects it with
// nth_element over every cell.

std::vector<float> oracle_cube_frame(const std::vector<float>& cells,
                                     const PoseNetConfig& cfg) {
  std::vector<float> sorted = cells;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const float floor = cfg.noise_floor_scale * sorted[sorted.size() / 2];
  std::vector<float> out(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    out[i] = std::max(0.0f, cells[i] - floor) * cfg.cube_scale +
             cfg.cube_offset;
  return out;
}

/// write_cube_frame and the in-place normalize_cube_frame against the
/// oracle, bitwise, at the default floor scale and at 0.5 (a floor below
/// the median, so an off-by-one selection moves cells that the default
/// scale would clamp to zero on tiny cubes).
void expect_oracle_bits(const radar::RadarCube& cube,
                        const std::string& what) {
  PoseNetConfig cfg;
  cfg.velocity_bins = cube.velocity_bins();
  cfg.range_bins = cube.range_bins();
  cfg.angle_bins = cube.angle_bins();
  for (const float scale : {cfg.noise_floor_scale, 0.5f}) {
    cfg.noise_floor_scale = scale;
    const std::vector<float> want = oracle_cube_frame(cube.data(), cfg);
    const std::size_t bytes = want.size() * sizeof(float);
    std::vector<float> got(cube.size(), -7.0f);
    write_cube_frame(cube, cfg, got.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
        << what << ", " << cube.size() << " cells, floor scale " << scale;
    std::vector<float> in_place = cube.data();
    normalize_cube_frame(cfg, in_place.data());
    EXPECT_EQ(std::memcmp(in_place.data(), want.data(), bytes), 0)
        << what << " (in place), floor scale " << scale;
  }
}

radar::RadarCube cube_of(int v, int d, int a, const std::vector<float>& cells) {
  radar::RadarCube cube(v, d, a);
  EXPECT_EQ(cells.size(), cube.size());
  std::copy(cells.begin(), cells.end(), cube.data().begin());
  return cube;
}

/// The paper-shaped cube geometry (V x D x A = 9,216 cells by default).
struct PaperCube {
  radar::ChirpConfig chirp;
  radar::PipelineConfig pipeline;
  int v() const { return chirp.chirps_per_frame; }
  int d() const { return pipeline.cube.range_bins; }
  int a() const { return pipeline.cube.total_angle_bins(); }
};

TEST(CubeFrame, MedianMatchesOracleAcrossSizes) {
  Rng rng(5);
  const PaperCube paper;
  const int dims[][3] = {{1, 1, 1}, {1, 1, 2}, {1, 3, 5}, {3, 5, 7},
                         {2, 2, 3}, {4, 8, 8}, {paper.v(), paper.d(), paper.a()}};
  for (const auto& dim : dims) {
    const std::size_t n =
        static_cast<std::size_t>(dim[0]) * dim[1] * dim[2];
    std::vector<float> cells(n);
    for (float& c : cells) c = static_cast<float>(rng.uniform(0.0, 4.0));
    expect_oracle_bits(cube_of(dim[0], dim[1], dim[2], cells), "uniform");
  }
  EXPECT_EQ(static_cast<std::size_t>(paper.v()) * paper.d() * paper.a(),
            9216u);
}

TEST(CubeFrame, MedianMatchesOracleOnDegenerateCubes) {
  const PaperCube paper;
  const std::size_t n =
      static_cast<std::size_t>(paper.v()) * paper.d() * paper.a();
  expect_oracle_bits(
      cube_of(paper.v(), paper.d(), paper.a(), std::vector<float>(n, 0.75f)),
      "all equal");
  expect_oracle_bits(
      cube_of(paper.v(), paper.d(), paper.a(), std::vector<float>(n, 0.0f)),
      "all +0");
  expect_oracle_bits(cube_of(3, 5, 7, std::vector<float>(105, 2.5f)),
                     "all equal, odd");
  // Negative cells do not occur (cells are log1p(|z|)), but the select
  // orders them too.
  Rng rng(6);
  std::vector<float> mixed(105);
  for (float& c : mixed)
    c = 0.25f * static_cast<float>(static_cast<int>(rng.uniform(-8.0, 8.0)));
  expect_oracle_bits(cube_of(3, 5, 7, mixed), "signed, tied");
  // An even count, so a select that ordered negative cells backwards
  // would pick the neighbouring element.
  std::vector<float> negative(4 * 8 * 8);
  for (float& c : negative) c = static_cast<float>(rng.uniform(-4.0, 0.5));
  expect_oracle_bits(cube_of(4, 8, 8, negative), "negative median");
}

TEST(CubeFrame, MedianMatchesOracleOnTiesAndBinEdges) {
  // Cells in [1, 1.125) share one 4,096-bin histogram bin (sign,
  // exponent and three mantissa bits).
  const float edge_lo = 1.0f;
  const float edge_hi = std::nextafter(1.125f, 0.0f);
  Rng rng(7);
  // Many ties inside the median's bin, flanked by other bins.
  std::vector<float> ties(4 * 8 * 8);
  for (std::size_t i = 0; i < ties.size(); ++i) {
    const std::size_t k = i % 10;
    ties[i] = k < 4   ? static_cast<float>(rng.uniform(0.0, 0.5))
              : k < 6 ? static_cast<float>(rng.uniform(2.0, 4.0))
                      : edge_lo + static_cast<float>(i % 3) * 1e-7f;
  }
  expect_oracle_bits(cube_of(4, 8, 8, ties), "ties in the median's bin");
  // The median is the bin's only cell, its first or its last value, or
  // the first cell after a bin that ends exactly at rank n/2.
  for (const float mid : {edge_lo, edge_hi}) {
    std::vector<float> cells(101, 0.5f);
    for (std::size_t i = 51; i < cells.size(); ++i) cells[i] = 2.0f;
    cells[50] = mid;
    expect_oracle_bits(cube_of(1, 1, 101, cells), "lone median at a bin edge");
    cells[49] = edge_lo;
    cells[51] = edge_hi;
    expect_oracle_bits(cube_of(1, 1, 101, cells), "median inside a bin");
  }
  std::vector<float> halves(100, 0.5f);
  for (std::size_t i = 50; i < halves.size(); ++i)
    halves[i] = i % 2 == 0 ? 2.0f : 3.0f;
  expect_oracle_bits(cube_of(1, 10, 10, halves), "bin ends at rank n/2");
  // Seeded sweep: random sizes with heavy ties.
  for (int trial = 0; trial < 200; ++trial) {
    const int a = 1 + static_cast<int>(rng.uniform(0.0, 60.0));
    const int d = 1 + static_cast<int>(rng.uniform(0.0, 60.0));
    const double levels = 1.0 + static_cast<int>(rng.uniform(0.0, 40.0));
    std::vector<float> cells(static_cast<std::size_t>(a) * d);
    for (float& c : cells)
      c = static_cast<float>(
          static_cast<int>(rng.uniform(0.0, levels)) / levels * 3.0);
    expect_oracle_bits(cube_of(1, d, a, cells),
                       "sweep " + std::to_string(trial));
  }
}

TEST(CubeFrame, MedianMatchesOracleOnGoldenSceneCubes) {
  const PaperCube paper;
  radar::ChirpConfig quiet_chirp = paper.chirp;
  quiet_chirp.noise_stddev = 0.0;
  const radar::AntennaArray array(paper.chirp);
  const radar::IfSimulator noisy(paper.chirp, array);
  const radar::IfSimulator quiet(quiet_chirp, array);
  const radar::RadarPipeline pipe(paper.chirp, array, paper.pipeline);
  const radar::Scene golden{
      {Vec3{0.05, 0.30, 0.02}, Vec3{0.0, 0.4, 0.0}, 1.0},
      {Vec3{-0.08, 0.45, -0.01}, Vec3{0.0, -0.2, 0.0}, 0.7},
  };
  Rng rng(11);
  for (int f = 0; f < 6; ++f) {
    const radar::IfSimulator& sim = f % 2 == 0 ? noisy : quiet;
    const auto cube = pipe.process_frame(
        sim.simulate_frame(golden, f * paper.chirp.frame_period_s, rng));
    expect_oracle_bits(cube, "golden scene frame " + std::to_string(f));
  }
}

}  // namespace
}  // namespace mmhand::pose
