// Tests for mmhand/nn: every layer's backward pass is validated against
// central-difference numerical gradients, plus optimizer, loss, and
// serialization behaviour.

#include <gtest/gtest.h>

#include <cmath>

#include "mmhand/nn/activations.hpp"
#include "mmhand/nn/attention.hpp"
#include "mmhand/nn/conv2d.hpp"
#include "mmhand/nn/gradcheck.hpp"
#include "mmhand/nn/layer_norm.hpp"
#include "mmhand/nn/linear.hpp"
#include "mmhand/nn/loss.hpp"
#include "mmhand/nn/lstm.hpp"
#include "mmhand/nn/optimizer.hpp"
#include "mmhand/nn/sequential.hpp"

namespace mmhand::nn {
namespace {

constexpr double kRelTol = 5e-2;
constexpr double kAbsTol = 1e-2;

Tensor random_tensor(std::vector<int> shape, Rng& rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform(-scale, scale));
  return t;
}

void expect_gradients_ok(const GradCheckResult& res) {
  EXPECT_GT(res.checked, 0u);
  EXPECT_LT(res.max_rel_error, kRelTol) << "abs=" << res.max_abs_error;
  EXPECT_LT(res.max_abs_error, kAbsTol) << "rel=" << res.max_rel_error;
}

TEST(Tensor, ShapeAndIndexing) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3);
  EXPECT_EQ(t.numel(), 24u);
  t.at(1, 2, 3) = 7.0f;
  EXPECT_FLOAT_EQ(t[23], 7.0f);
  EXPECT_THROW(Tensor({2, 0}), Error);
}

TEST(Tensor, ReshapePreservesData) {
  Rng rng(1);
  const Tensor t = random_tensor({3, 4}, rng);
  const Tensor r = t.reshaped({2, 6});
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], r[i]);
  EXPECT_THROW(t.reshaped({5, 5}), Error);
}

TEST(Tensor, Arithmetic) {
  Tensor a = Tensor::full({4}, 2.0f);
  const Tensor b = Tensor::full({4}, 3.0f);
  a.add_(b);
  EXPECT_FLOAT_EQ(a[0], 5.0f);
  a.axpy_(2.0f, b);
  EXPECT_FLOAT_EQ(a[0], 11.0f);
  a.scale_(0.5f);
  EXPECT_FLOAT_EQ(a[0], 5.5f);
}

TEST(Linear, ForwardMatchesManual) {
  Rng rng(2);
  Linear fc(3, 2, rng);
  fc.weight().value = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  fc.bias().value = Tensor::from_vector({2}, {0.5f, -0.5f});
  const Tensor x = Tensor::from_vector({1, 3}, {1, 1, 1});
  const Tensor y = fc.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 6.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 14.5f);
}

TEST(Linear, GradCheck) {
  Rng rng(3);
  Linear fc(5, 4, rng);
  const Tensor x = random_tensor({3, 5}, rng);
  Rng check_rng(4);
  expect_gradients_ok(check_input_gradient(fc, x, check_rng));
  Rng check_rng2(5);
  expect_gradients_ok(check_parameter_gradients(fc, x, check_rng2));
}

struct ConvCase {
  int in_ch, out_ch, k, stride, pad, h, w;
};

class ConvGeometry : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometry, GradCheck) {
  const auto c = GetParam();
  Rng rng(6);
  Conv2d conv(c.in_ch, c.out_ch, c.k, c.stride, c.pad, rng);
  const Tensor x = random_tensor({2, c.in_ch, c.h, c.w}, rng);
  Rng check_rng(7);
  expect_gradients_ok(check_input_gradient(conv, x, check_rng));
  Rng check_rng2(8);
  expect_gradients_ok(check_parameter_gradients(conv, x, check_rng2));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometry,
    ::testing::Values(ConvCase{1, 1, 3, 1, 1, 5, 5},
                      ConvCase{2, 3, 3, 2, 1, 6, 6},
                      ConvCase{3, 2, 1, 1, 0, 4, 4},
                      ConvCase{2, 2, 5, 1, 2, 7, 7},
                      ConvCase{2, 4, 3, 2, 1, 5, 7}));

TEST(Conv2d, IdentityKernelPassesThrough) {
  Rng rng(9);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  conv.parameters()[0]->value = Tensor::from_vector({1, 1, 1, 1}, {1.0f});
  conv.parameters()[1]->value = Tensor::from_vector({1}, {0.0f});
  const Tensor x = random_tensor({1, 1, 3, 3}, rng);
  const Tensor y = conv.forward(x, false);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, OutputExtent) {
  Rng rng(10);
  Conv2d conv(1, 1, 3, 2, 1, rng);
  EXPECT_EQ(conv.out_extent(12), 6);
  EXPECT_EQ(conv.out_extent(6), 3);
  EXPECT_EQ(conv.out_extent(24), 12);
}

class DeconvGeometry : public ::testing::TestWithParam<ConvCase> {};

TEST_P(DeconvGeometry, GradCheck) {
  const auto c = GetParam();
  Rng rng(11);
  ConvTranspose2d deconv(c.in_ch, c.out_ch, c.k, c.stride, c.pad, rng);
  const Tensor x = random_tensor({2, c.in_ch, c.h, c.w}, rng);
  Rng check_rng(12);
  expect_gradients_ok(check_input_gradient(deconv, x, check_rng));
  Rng check_rng2(13);
  expect_gradients_ok(check_parameter_gradients(deconv, x, check_rng2));
}

// Naive direct-scatter transposed convolution in double: every input pixel
// adds w * x into each output pixel its kernel covers.  Weight layout is
// [IC, OC, K, K], as in ConvTranspose2d.
std::vector<double> deconv_reference(const Tensor& x, const Tensor& weight,
                                     const Tensor& bias, const ConvCase& c,
                                     int oh, int ow) {
  const int n = x.dim(0);
  std::vector<double> y(static_cast<std::size_t>(n) * c.out_ch * oh * ow);
  auto out = [&](int s, int oc, int i, int j) -> double& {
    return y[((static_cast<std::size_t>(s) * c.out_ch + oc) * oh + i) * ow + j];
  };
  for (int s = 0; s < n; ++s)
    for (int oc = 0; oc < c.out_ch; ++oc)
      for (int i = 0; i < oh; ++i)
        for (int j = 0; j < ow; ++j) out(s, oc, i, j) = bias.at(oc);
  for (int s = 0; s < n; ++s)
    for (int ic = 0; ic < c.in_ch; ++ic)
      for (int i = 0; i < c.h; ++i)
        for (int j = 0; j < c.w; ++j)
          for (int oc = 0; oc < c.out_ch; ++oc)
            for (int ki = 0; ki < c.k; ++ki)
              for (int kj = 0; kj < c.k; ++kj) {
                const int oi = i * c.stride + ki - c.pad;
                const int oj = j * c.stride + kj - c.pad;
                if (oi < 0 || oi >= oh || oj < 0 || oj >= ow) continue;
                out(s, oc, oi, oj) += static_cast<double>(x.at(s, ic, i, j)) *
                                      weight.at(ic, oc, ki, kj);
              }
  return y;
}

TEST_P(DeconvGeometry, ForwardMatchesDirectScatter) {
  const auto c = GetParam();
  Rng rng(16);
  ConvTranspose2d deconv(c.in_ch, c.out_ch, c.k, c.stride, c.pad, rng);
  Tensor& bias = deconv.parameters()[1]->value;
  for (std::size_t i = 0; i < bias.numel(); ++i)
    bias[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
  // Post-ReLU-like input: about a third exact zeros (gemm's skip path).
  Tensor x = random_tensor({3, c.in_ch, c.h, c.w}, rng);
  for (std::size_t i = 0; i < x.numel(); ++i)
    if (i % 3 == 0 || x[i] < -0.6f) x[i] = 0.0f;
  const Tensor y = deconv.forward(x, false);
  const int oh = deconv.out_extent(c.h), ow = deconv.out_extent(c.w);
  ASSERT_EQ(y.dim(2), oh);
  ASSERT_EQ(y.dim(3), ow);
  const std::vector<double> ref = deconv_reference(
      x, deconv.parameters()[0]->value, bias, c, oh, ow);
  ASSERT_EQ(ref.size(), y.numel());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(y[i], ref[i], 1e-5) << "at flat index " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DeconvGeometry,
    ::testing::Values(ConvCase{1, 1, 4, 2, 1, 3, 3},
                      ConvCase{2, 2, 4, 2, 1, 4, 4},
                      ConvCase{3, 1, 3, 1, 1, 4, 4},
                      ConvCase{2, 4, 4, 2, 1, 3, 5},
                      ConvCase{3, 2, 3, 2, 1, 5, 4}));

TEST(ConvTranspose2d, DoublesSpatialExtent) {
  Rng rng(14);
  ConvTranspose2d deconv(1, 1, 4, 2, 1, rng);
  EXPECT_EQ(deconv.out_extent(3), 6);
  EXPECT_EQ(deconv.out_extent(6), 12);
  const Tensor x = random_tensor({1, 1, 3, 3}, rng);
  const Tensor y = deconv.forward(x, false);
  EXPECT_EQ(y.dim(2), 6);
  EXPECT_EQ(y.dim(3), 6);
}

TEST(Activations, ReluForwardAndGrad) {
  Rng rng(15);
  ReLU relu;
  const Tensor x = Tensor::from_vector({1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  const Tensor g = relu.backward(Tensor::full({1, 4}, 1.0f));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[2], 1.0f);
}

TEST(Activations, SigmoidGradCheck) {
  Rng rng(16);
  Sigmoid s;
  const Tensor x = random_tensor({2, 6}, rng, 2.0);
  Rng check_rng(17);
  expect_gradients_ok(check_input_gradient(s, x, check_rng));
}

TEST(Activations, TanhGradCheck) {
  Rng rng(18);
  Tanh t;
  const Tensor x = random_tensor({2, 6}, rng, 2.0);
  Rng check_rng(19);
  expect_gradients_ok(check_input_gradient(t, x, check_rng));
}

TEST(LayerNorm, NormalizesRows) {
  LayerNorm ln(8);
  Rng rng(20);
  const Tensor x = random_tensor({3, 8}, rng, 5.0);
  const Tensor y = ln.forward(x, false);
  for (int i = 0; i < 3; ++i) {
    double mean = 0.0, var = 0.0;
    for (int f = 0; f < 8; ++f) mean += y.at(i, f);
    mean /= 8.0;
    for (int f = 0; f < 8; ++f) var += (y.at(i, f) - mean) * (y.at(i, f) - mean);
    var /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNorm, GradCheck) {
  LayerNorm ln(6);
  Rng rng(21);
  const Tensor x = random_tensor({4, 6}, rng, 2.0);
  Rng check_rng(22);
  expect_gradients_ok(check_input_gradient(ln, x, check_rng));
  Rng check_rng2(23);
  expect_gradients_ok(check_parameter_gradients(ln, x, check_rng2));
}

TEST(Lstm, OutputShapeAndBoundedness) {
  Rng rng(24);
  Lstm lstm(4, 6, rng);
  const Tensor x = random_tensor({5, 4}, rng, 2.0);
  const Tensor y = lstm.forward(x, false);
  EXPECT_EQ(y.dim(0), 5);
  EXPECT_EQ(y.dim(1), 6);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_GT(y[i], -1.0f);
    EXPECT_LT(y[i], 1.0f);
  }
}

TEST(Lstm, GradCheck) {
  Rng rng(25);
  Lstm lstm(3, 4, rng);
  const Tensor x = random_tensor({4, 3}, rng);
  Rng check_rng(26);
  expect_gradients_ok(check_input_gradient(lstm, x, check_rng));
  Rng check_rng2(27);
  expect_gradients_ok(check_parameter_gradients(lstm, x, check_rng2));
}

TEST(Lstm, StateResetsBetweenSequences) {
  Rng rng(28);
  Lstm lstm(2, 3, rng);
  const Tensor x = random_tensor({3, 2}, rng);
  const Tensor y1 = lstm.forward(x, false);
  const Tensor y2 = lstm.forward(x, false);
  for (std::size_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(FrameChannelAttention, WeightsInUnitInterval) {
  Rng rng(29);
  FrameChannelAttention att(rng);
  const Tensor x = random_tensor({3, 4, 5, 5}, rng);
  (void)att.forward(x, false);
  const Tensor& w = att.last_weights();
  ASSERT_EQ(w.numel(), 3u);
  for (std::size_t i = 0; i < w.numel(); ++i) {
    EXPECT_GT(w[i], 0.0f);
    EXPECT_LT(w[i], 1.0f);
  }
}

TEST(FrameChannelAttention, GradCheck) {
  Rng rng(30);
  FrameChannelAttention att(rng);
  const Tensor x = random_tensor({2, 3, 4, 4}, rng);
  Rng check_rng(31);
  expect_gradients_ok(check_input_gradient(att, x, check_rng));
  Rng check_rng2(32);
  expect_gradients_ok(check_parameter_gradients(att, x, check_rng2));
}

TEST(ChannelAttention, GradCheck) {
  Rng rng(33);
  ChannelAttention att(3, rng);
  const Tensor x = random_tensor({2, 3, 4, 4}, rng);
  Rng check_rng(34);
  expect_gradients_ok(check_input_gradient(att, x, check_rng));
  Rng check_rng2(35);
  expect_gradients_ok(check_parameter_gradients(att, x, check_rng2));
}

TEST(SpatialAttention, GradCheck) {
  Rng rng(36);
  SpatialAttention att(rng, 3);
  const Tensor x = random_tensor({2, 3, 5, 5}, rng);
  Rng check_rng(37);
  expect_gradients_ok(check_input_gradient(att, x, check_rng));
  Rng check_rng2(38);
  expect_gradients_ok(check_parameter_gradients(att, x, check_rng2));
}

TEST(SpatialAttention, AttenuatesButPreservesShape) {
  Rng rng(39);
  SpatialAttention att(rng, 5);
  const Tensor x = random_tensor({1, 4, 6, 6}, rng);
  const Tensor y = att.forward(x, false);
  EXPECT_TRUE(y.same_shape(x));
}

TEST(Sequential, ChainsLayersAndGradChecks) {
  Rng rng(40);
  Sequential seq;
  seq.emplace<Linear>(6, 8, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(8, 4, rng);
  seq.emplace<Tanh>();
  const Tensor x = random_tensor({3, 6}, rng);
  EXPECT_EQ(seq.forward(x, false).dim(1), 4);
  EXPECT_EQ(seq.parameters().size(), 4u);
  Rng check_rng(41);
  expect_gradients_ok(check_input_gradient(seq, x, check_rng));
}

TEST(Loss, JointL2MatchesManual) {
  const Tensor pred = Tensor::from_vector({6}, {0, 0, 0, 1, 1, 1});
  const Tensor gt = Tensor::from_vector({6}, {3, 4, 0, 1, 1, 1});
  const auto res = joint_l2_loss(pred, gt);
  EXPECT_NEAR(res.value, 5.0, 1e-6);  // sqrt(9+16) + 0
  EXPECT_NEAR(res.grad[0], -0.6, 1e-5);
  EXPECT_NEAR(res.grad[1], -0.8, 1e-5);
  EXPECT_NEAR(res.grad[3], 0.0, 1e-6);
}

TEST(Loss, JointL2GradNumeric) {
  Rng rng(42);
  Tensor pred = random_tensor({9}, rng);
  const Tensor gt = random_tensor({9}, rng);
  const auto res = joint_l2_loss(pred, gt);
  const double eps = 1e-4;
  for (std::size_t i = 0; i < pred.numel(); ++i) {
    const float orig = pred[i];
    pred[i] = orig + static_cast<float>(eps);
    const double plus = joint_l2_loss(pred, gt).value;
    pred[i] = orig - static_cast<float>(eps);
    const double minus = joint_l2_loss(pred, gt).value;
    pred[i] = orig;
    EXPECT_NEAR(res.grad[i], (plus - minus) / (2 * eps), 1e-3);
  }
}

TEST(Loss, MseBasics) {
  const Tensor pred = Tensor::from_vector({2}, {1.0f, 3.0f});
  const Tensor gt = Tensor::from_vector({2}, {0.0f, 1.0f});
  const auto res = mse_loss(pred, gt);
  EXPECT_NEAR(res.value, (1.0 + 4.0) / 2.0, 1e-6);
  EXPECT_NEAR(res.grad[1], 2.0, 1e-6);
}

TEST(Adam, ConvergesOnLinearRegression) {
  // y = 2x + 1 learned from noisy samples.
  Rng rng(43);
  Linear fc(1, 1, rng);
  Adam opt(fc.parameters(), {.lr = 0.05});
  for (int step = 0; step < 400; ++step) {
    Tensor x({8, 1}), t({8, 1});
    for (int i = 0; i < 8; ++i) {
      const double xv = rng.uniform(-1.0, 1.0);
      x.at(i, 0) = static_cast<float>(xv);
      t.at(i, 0) = static_cast<float>(2.0 * xv + 1.0 + rng.normal(0, 0.01));
    }
    const Tensor y = fc.forward(x, true);
    const auto loss = mse_loss(y, t);
    opt.zero_grad();
    (void)fc.backward(loss.grad);
    opt.step();
  }
  EXPECT_NEAR(fc.weight().value[0], 2.0f, 0.1f);
  EXPECT_NEAR(fc.bias().value[0], 1.0f, 0.1f);
}

TEST(Adam, CosineDecaySchedule) {
  EXPECT_NEAR(cosine_decay(0, 100), 1.0, 1e-12);
  EXPECT_NEAR(cosine_decay(50, 100), 0.5, 1e-12);
  EXPECT_NEAR(cosine_decay(100, 100), 0.0, 1e-12);
  EXPECT_GT(cosine_decay(10, 100), cosine_decay(90, 100));
}

TEST(Parameters, CountAndZero) {
  Rng rng(44);
  Linear fc(3, 2, rng);
  auto params = fc.parameters();
  EXPECT_EQ(parameter_count(params), 8u);  // 6 weights + 2 biases
  params[0]->grad.fill(5.0f);
  zero_grads(params);
  EXPECT_FLOAT_EQ(params[0]->grad[0], 0.0f);
}

TEST(Parameters, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/params.bin";
  Rng rng(45);
  Linear a(4, 3, rng), b(4, 3, rng);
  {
    BinaryWriter w(path);
    save_parameters(a.parameters(), w);
    w.close();
  }
  BinaryReader r(path);
  load_parameters(b.parameters(), r);
  const Tensor x = random_tensor({2, 4}, rng);
  const Tensor ya = a.forward(x, false);
  const Tensor yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
  std::remove(path.c_str());
}

TEST(Parameters, LoadRejectsShapeMismatch) {
  const std::string path = ::testing::TempDir() + "/params_bad.bin";
  Rng rng(46);
  Linear a(4, 3, rng);
  Linear c(5, 3, rng);
  {
    BinaryWriter w(path);
    save_parameters(a.parameters(), w);
    w.close();
  }
  BinaryReader r(path);
  EXPECT_THROW(load_parameters(c.parameters(), r), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mmhand::nn
