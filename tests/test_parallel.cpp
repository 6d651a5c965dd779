// Determinism of the parallel execution layer: results must be
// bitwise-identical at any thread count, because every parallel_for index
// is a whole sample or frame writing a disjoint output slice, and no
// reduction is ever reordered.  Only the conv, deconv and dataset-record
// tests reach the pool; the radar frame, GEMM, Linear and LSTM tests run
// serial code at both thread counts and guard against a fan-out inside
// one product coming back with different bits.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "mmhand/common/parallel.hpp"
#include "mmhand/common/rng.hpp"
#include "mmhand/nn/conv2d.hpp"
#include "mmhand/nn/gemm.hpp"
#include "mmhand/nn/linear.hpp"
#include "mmhand/nn/lstm.hpp"
#include "mmhand/radar/antenna_array.hpp"
#include "mmhand/radar/chirp_config.hpp"
#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/pipeline.hpp"
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

TEST(ParallelDeterminism, ProcessFrameBitwiseEqualAcrossThreadCounts) {
  const auto serial = with_threads(1, run_process_frame);
  const auto threaded = with_threads(4, run_process_frame);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], threaded[i]) << "cube cell " << i;
}

/// A short recording on small radar shapes: 0.8 s at 20 fps is 16
/// frames, two full blocks of the builder's per-frame fan-out.
sim::Recording run_record() {
  radar::ChirpConfig chirp;
  chirp.chirps_per_frame = 8;
  chirp.samples_per_chirp = 32;
  chirp.frame_period_s = 0.05;
  radar::PipelineConfig pc;
  pc.cube.range_bins = 12;
  pc.cube.azimuth_bins = 8;
  pc.cube.elevation_bins = 4;
  const sim::DatasetBuilder builder(chirp, pc);
  sim::ScenarioConfig scenario;
  scenario.duration_s = 0.8;
  scenario.seed = 31;
  return builder.record(scenario);
}

TEST(ParallelDeterminism, DatasetRecordBitwiseEqualAcrossThreadCounts) {
  const sim::Recording serial = with_threads(1, run_record);
  const sim::Recording threaded = with_threads(4, run_record);
  ASSERT_EQ(serial.frames.size(), 16u);
  ASSERT_EQ(serial.frames.size(), threaded.frames.size());
  for (std::size_t f = 0; f < serial.frames.size(); ++f) {
    const sim::FrameRecord& a = serial.frames[f];
    const sim::FrameRecord& b = threaded.frames[f];
    EXPECT_EQ(a.cube.data(), b.cube.data()) << "frame " << f;
    EXPECT_EQ(a.joints, b.joints) << "frame " << f;
    EXPECT_EQ(a.true_joints, b.true_joints) << "frame " << f;
    EXPECT_EQ(a.gesture, b.gesture) << "frame " << f;
    EXPECT_EQ(a.time_s, b.time_s) << "frame " << f;
  }
}

struct ConvResult {
  std::vector<float> y, grad_in, dw, db;
};

template <typename ConvLayer>
ConvResult run_conv() {
  Rng rng(42);
  ConvLayer conv(3, 8, 3, 1, 1, rng);
  // A window's 8 frames: enough samples that the per-sample fan-out
  // really runs on the pool at 4 threads.  The empty region first spawns
  // and wakes the workers, and 64 x 64 samples make the forward outlast
  // a worker's wake-up, so a worker claims samples even when this test
  // runs alone.
  parallel_for(0, 4 * num_threads(), [](std::int64_t) {});
  const nn::Tensor x = nn::Tensor::randn({8, 3, 64, 64}, rng, 1.0);
  const nn::Tensor y = conv.forward(x, /*training=*/true);
  const nn::Tensor g = nn::Tensor::randn(y.shape(), rng, 1.0);
  const nn::Tensor grad_in = conv.backward(g);
  const auto params = conv.parameters();
  return {y.vec(), grad_in.vec(), params[0]->grad.vec(),
          params[1]->grad.vec()};
}

template <typename ConvLayer>
void expect_conv_bitwise_equal_across_threads() {
  const ConvResult serial = with_threads(1, run_conv<ConvLayer>);
  const ConvResult threaded = with_threads(4, run_conv<ConvLayer>);
  EXPECT_EQ(serial.y, threaded.y);
  EXPECT_EQ(serial.grad_in, threaded.grad_in);
  EXPECT_EQ(serial.dw, threaded.dw);
  EXPECT_EQ(serial.db, threaded.db);
}

TEST(ParallelDeterminism, Conv2dForwardBackwardBitwiseEqual) {
  expect_conv_bitwise_equal_across_threads<nn::Conv2d>();
}

TEST(ParallelDeterminism, ConvTranspose2dForwardBackwardBitwiseEqual) {
  expect_conv_bitwise_equal_across_threads<nn::ConvTranspose2d>();
}

/// All three GEMM layouts on a shape wide enough for many column panels
/// (13 at 16 columns, 100 at 2).
std::vector<std::vector<float>> run_gemms() {
  constexpr int m = 13, k = 300, n = 200;
  Rng rng(5);
  const nn::Tensor a = nn::Tensor::randn({m, k}, rng, 1.0);
  const nn::Tensor at = nn::Tensor::randn({k, m}, rng, 1.0);
  const nn::Tensor b = nn::Tensor::randn({k, n}, rng, 1.0);
  const nn::Tensor bt = nn::Tensor::randn({n, k}, rng, 1.0);
  std::vector<std::vector<float>> out(3, std::vector<float>(m * n, 0.5f));
  nn::gemm_acc(a.data(), b.data(), out[0].data(), m, k, n);
  nn::gemm_at_b_acc(at.data(), b.data(), out[1].data(), m, k, n);
  nn::gemm_a_bt_acc(a.data(), bt.data(), out[2].data(), m, k, n);
  return out;
}

TEST(ParallelDeterminism, GemmBitwiseEqual) {
  EXPECT_EQ(with_threads(1, run_gemms), with_threads(4, run_gemms));
}

std::tuple<std::vector<float>, std::vector<float>> run_linear() {
  Rng rng(7);
  nn::Linear fc(64, 48, rng);
  const nn::Tensor x = nn::Tensor::randn({32, 64}, rng, 1.0);
  const nn::Tensor y = fc.forward(x, /*training=*/true);
  const nn::Tensor grad_in = fc.backward(y);
  return {y.vec(), grad_in.vec()};
}

TEST(ParallelDeterminism, LinearBitwiseEqual) {
  EXPECT_EQ(with_threads(1, run_linear), with_threads(4, run_linear));
}

std::vector<float> run_lstm() {
  Rng rng(9);
  nn::Lstm lstm(24, 32, rng);
  const nn::Tensor x = nn::Tensor::randn({16, 24}, rng, 1.0);
  return lstm.forward(x, /*training=*/false).vec();
}

TEST(ParallelDeterminism, LstmForwardBitwiseEqual) {
  EXPECT_EQ(with_threads(1, run_lstm), with_threads(4, run_lstm));
}

}  // namespace
}  // namespace mmhand
