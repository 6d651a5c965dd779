// Tests for mmhand/nn: every layer's backward pass is validated against
// central-difference numerical gradients, the GEMM layouts and the
// rewritten forward passes against naive oracles, and a paper-shaped
// forward against golden bit hashes; plus optimizer, loss, and
// serialization behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "mmhand/eval/experiment.hpp"
#include "mmhand/nn/activations.hpp"
#include "mmhand/nn/attention.hpp"
#include "mmhand/nn/conv2d.hpp"
#include "mmhand/nn/gemm.hpp"
#include "mmhand/nn/gradcheck.hpp"
#include "mmhand/nn/layer_norm.hpp"
#include "mmhand/nn/linear.hpp"
#include "mmhand/nn/loss.hpp"
#include "mmhand/nn/lstm.hpp"
#include "mmhand/nn/optimizer.hpp"
#include "mmhand/nn/sequential.hpp"
#include "mmhand/pose/joint_model.hpp"
#include "mmhand/simd/simd.hpp"

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

// ---- nn/gemm: the three layouts against a double oracle, per ISA table.

enum class GemmLayout { kAB, kAtB, kABt };
constexpr GemmLayout kGemmLayouts[] = {GemmLayout::kAB, GemmLayout::kAtB,
                                       GemmLayout::kABt};

const char* layout_name(GemmLayout layout) {
  switch (layout) {
    case GemmLayout::kAB:
      return "gemm_acc";
    case GemmLayout::kAtB:
      return "gemm_at_b_acc";
    case GemmLayout::kABt:
      return "gemm_a_bt_acc";
  }
  return "?";
}

std::vector<float> uniform_floats(std::size_t count, Rng& rng) {
  std::vector<float> v(count);
  for (float& x : v) x = static_cast<float>(rng.uniform(-0.5, 0.5));
  return v;
}

/// [rows x cols] row-major -> [cols x rows] row-major.
std::vector<float> transposed(const std::vector<float>& x, int rows,
                              int cols) {
  std::vector<float> t(x.size());
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      t[static_cast<std::size_t>(c) * rows + r] =
          x[static_cast<std::size_t>(r) * cols + c];
  return t;
}

/// C_in + A*B for row-major A [m x k] and B [k x n], with each operand
/// stored the way `layout` expects it.
std::vector<float> run_gemm(GemmLayout layout, const std::vector<float>& a,
                            const std::vector<float>& b,
                            std::vector<float> c, int m, int k, int n) {
  switch (layout) {
    case GemmLayout::kAB:
      gemm_acc(a.data(), b.data(), c.data(), m, k, n);
      break;
    case GemmLayout::kAtB:
      gemm_at_b_acc(transposed(a, m, k).data(), b.data(), c.data(), m, k, n);
      break;
    case GemmLayout::kABt:
      gemm_a_bt_acc(a.data(), transposed(b, k, n).data(), c.data(), m, k, n);
      break;
  }
  return c;
}

std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = std::bit_cast<std::uint32_t>(v[i]);
  return out;
}

/// Every kernel table this host can run, widest first (scalar always
/// last); each test pins them in turn and restores the active one.
std::vector<simd::Isa> gemm_isas() {
  std::vector<simd::Isa> isas;
  for (simd::Isa isa : simd::kAllIsas)
    if (simd::kernels_for(isa) != nullptr) isas.push_back(isa);
  return isas;
}

class GemmPerIsa : public ::testing::Test {
 protected:
  void TearDown() override { simd::set_isa(saved_); }
  const simd::Isa saved_ = simd::active_isa();
};

TEST_F(GemmPerIsa, MatchesDoubleOracleOnEdgeShapes) {
  ASSERT_EQ(gemm_isas().back(), simd::Isa::kScalar);
  Rng rng(31);
  for (simd::Isa isa : gemm_isas()) {
    ASSERT_TRUE(simd::set_isa(isa));
    for (int m : {1, 5, 6, 7, 13})
      for (int n : {1, 15, 16, 17, 40})
        for (int k : {0, 1, 7, 8, 9, 16, 300}) {
          const auto a = uniform_floats(m * k, rng);
          const auto b = uniform_floats(k * n, rng);
          const auto c = uniform_floats(m * n, rng);
          std::vector<double> ref(c.begin(), c.end());
          for (int i = 0; i < m; ++i)
            for (int j = 0; j < n; ++j)
              for (int p = 0; p < k; ++p)
                ref[i * n + j] +=
                    static_cast<double>(a[i * k + p]) * b[p * n + j];
          for (GemmLayout layout : kGemmLayouts) {
            const auto out = run_gemm(layout, a, b, c, m, k, n);
            double err = 0.0;
            for (std::size_t i = 0; i < ref.size(); ++i)
              err = std::max(err, std::abs(out[i] - ref[i]));
            EXPECT_LE(err, 1e-5) << simd::isa_name(isa) << " "
                                 << layout_name(layout) << " m=" << m
                                 << " k=" << k << " n=" << n;
          }
        }
  }
}

TEST_F(GemmPerIsa, LayoutsAgreeBitwise) {
  // Each element is C_in plus one FMA chain from 0 over ascending k in
  // every layout, so how an operand is packed (in place, strided, or
  // through the transposing pack) must not move a bit.  The oracle test's
  // 1e-5 tolerance could hide a pack that drops or reorders a term.
  Rng rng(34);
  for (simd::Isa isa : gemm_isas()) {
    ASSERT_TRUE(simd::set_isa(isa));
    for (int m : {1, 5, 6, 7, 13})
      for (int n : {1, 15, 16, 17, 40})
        for (int k : {0, 1, 7, 8, 9, 16, 300}) {
          const auto a = uniform_floats(m * k, rng);
          const auto b = uniform_floats(k * n, rng);
          const auto c = uniform_floats(m * n, rng);
          const auto want = bits(run_gemm(GemmLayout::kAB, a, b, c, m, k, n));
          for (GemmLayout layout : {GemmLayout::kAtB, GemmLayout::kABt})
            EXPECT_EQ(bits(run_gemm(layout, a, b, c, m, k, n)), want)
                << simd::isa_name(isa) << " " << layout_name(layout)
                << " m=" << m << " k=" << k << " n=" << n;
        }
  }
}

TEST_F(GemmPerIsa, RowsAreBitwiseIndependentOfRowCount) {
  // forward_batch parity rests on this: one row of a batched product
  // rounds exactly as the single-row product of that row.
  constexpr int m = 13, k = 300, n = 40;
  Rng rng(32);
  const auto a = uniform_floats(m * k, rng);
  const auto b = uniform_floats(k * n, rng);
  const auto c = uniform_floats(m * n, rng);
  for (simd::Isa isa : gemm_isas()) {
    ASSERT_TRUE(simd::set_isa(isa));
    for (GemmLayout layout : kGemmLayouts) {
      const auto full = bits(run_gemm(layout, a, b, c, m, k, n));
      for (int i = 0; i < m; ++i) {
        const std::vector<float> a_row(a.begin() + i * k,
                                       a.begin() + (i + 1) * k);
        const std::vector<float> c_row(c.begin() + i * n,
                                       c.begin() + (i + 1) * n);
        const auto row = bits(run_gemm(layout, a_row, b, c_row, 1, k, n));
        EXPECT_EQ(row, std::vector<std::uint32_t>(full.begin() + i * n,
                                                  full.begin() + (i + 1) * n))
            << simd::isa_name(isa) << " " << layout_name(layout)
            << " row " << i;
      }
    }
  }
}

TEST_F(GemmPerIsa, ColumnsAreBitwiseIndependentOfColumnCount) {
  constexpr int m = 13, k = 300, n = 40;
  Rng rng(33);
  const auto a = uniform_floats(m * k, rng);
  const auto b = uniform_floats(k * n, rng);
  const auto c = uniform_floats(m * n, rng);
  for (simd::Isa isa : gemm_isas()) {
    ASSERT_TRUE(simd::set_isa(isa));
    for (GemmLayout layout : kGemmLayouts) {
      const auto full = bits(run_gemm(layout, a, b, c, m, k, n));
      for (int j = 0; j < n; ++j) {
        std::vector<float> b_col(k), c_col(m);
        std::vector<std::uint32_t> want(m);
        for (int p = 0; p < k; ++p) b_col[p] = b[p * n + j];
        for (int i = 0; i < m; ++i) {
          c_col[i] = c[i * n + j];
          want[i] = full[i * n + j];
        }
        EXPECT_EQ(bits(run_gemm(layout, a, b_col, c_col, m, k, 1)), want)
            << simd::isa_name(isa) << " " << layout_name(layout)
            << " column " << j;
      }
    }
  }
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

constexpr ConvCase kConvCases[] = {
    {1, 1, 3, 1, 1, 5, 5}, {2, 3, 3, 2, 1, 6, 6}, {3, 2, 1, 1, 0, 4, 4},
    {2, 2, 5, 1, 2, 7, 7}, {2, 4, 3, 2, 1, 5, 7},
    // OC past gemm_mr and 20 output pixels past the AVX2 gemm_nr: more
    // than one A panel and one B panel.
    {3, 7, 3, 1, 1, 5, 4},
};

INSTANTIATE_TEST_SUITE_P(Geometries, ConvGeometry,
                         ::testing::ValuesIn(kConvCases));

// Naive direct convolution in double; weight layout [OC, IC, K, K].
std::vector<double> conv_reference(const Tensor& x, const Tensor& weight,
                                   const Tensor& bias, const ConvCase& c,
                                   int oh, int ow) {
  const int n = x.dim(0);
  std::vector<double> y;
  for (int s = 0; s < n; ++s)
    for (int oc = 0; oc < c.out_ch; ++oc)
      for (int i = 0; i < oh; ++i)
        for (int j = 0; j < ow; ++j) {
          double acc = bias.at(oc);
          for (int ic = 0; ic < c.in_ch; ++ic)
            for (int ki = 0; ki < c.k; ++ki)
              for (int kj = 0; kj < c.k; ++kj) {
                const int xi = i * c.stride + ki - c.pad;
                const int xj = j * c.stride + kj - c.pad;
                if (xi < 0 || xi >= c.h || xj < 0 || xj >= c.w) continue;
                acc += static_cast<double>(x.at(s, ic, xi, xj)) *
                       weight.at(oc, ic, ki, kj);
              }
          y.push_back(acc);
        }
  return y;
}

TEST(Conv2d, ForwardMatchesDirectConv) {
  // The grad-check geometries plus ones where the padding covers part of
  // every output row (k = 5, pad = 2 on narrow inputs), whole rows
  // (pad >= k), or leaves no interior at all (w = 1, stride 3), and
  // strided cases with odd widths.
  std::vector<ConvCase> cases(std::begin(kConvCases), std::end(kConvCases));
  cases.insert(cases.end(), {{2, 3, 5, 1, 2, 3, 3},
                             {1, 2, 5, 1, 2, 4, 1},
                             {3, 2, 5, 2, 2, 7, 9},
                             {2, 2, 4, 3, 1, 8, 7},
                             {1, 1, 1, 1, 2, 3, 3},
                             {1, 2, 1, 3, 2, 4, 1},
                             {2, 3, 3, 2, 1, 4, 5}});
  Rng rng(17);
  for (const ConvCase& c : cases) {
    Conv2d conv(c.in_ch, c.out_ch, c.k, c.stride, c.pad, rng);
    Tensor& bias = conv.parameters()[1]->value;
    for (std::size_t i = 0; i < bias.numel(); ++i)
      bias[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
    const Tensor x = random_tensor({2, c.in_ch, c.h, c.w}, rng);
    const Tensor y = conv.forward(x, false);
    const int oh = conv.out_extent(c.h), ow = conv.out_extent(c.w);
    ASSERT_EQ(y.dim(2), oh);
    ASSERT_EQ(y.dim(3), ow);
    const std::vector<double> ref =
        conv_reference(x, conv.parameters()[0]->value, bias, c, oh, ow);
    ASSERT_EQ(ref.size(), y.numel());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_NEAR(y[i], ref[i], 1e-5)
          << "k=" << c.k << " stride=" << c.stride << " pad=" << c.pad
          << " h=" << c.h << " w=" << c.w << " at flat index " << i;
  }
}

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
  // Post-ReLU-like input: about a third exact zeros.
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
                      ConvCase{3, 2, 3, 2, 1, 5, 4},
                      // K*K = 25 spans two AVX2 gemm_nr column panels.
                      ConvCase{2, 3, 5, 2, 2, 3, 4}));

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

// ---- Conv bits per ISA: the forwards against an explicit im2col + GEMM.

/// [ch, h, w] -> [ch*K*K rows x oh*ow pixels], zero where a tap falls in
/// the padding.
std::vector<float> im2col_cols(const float* x, int ch, int h, int w, int k,
                               int stride, int pad, int oh, int ow) {
  std::vector<float> cols(static_cast<std::size_t>(ch) * k * k * oh * ow);
  std::size_t r = 0;
  for (int c = 0; c < ch; ++c)
    for (int ki = 0; ki < k; ++ki)
      for (int kj = 0; kj < k; ++kj)
        for (int i = 0; i < oh; ++i)
          for (int j = 0; j < ow; ++j, ++r) {
            const int xi = i * stride + ki - pad, xj = j * stride + kj - pad;
            if (xi >= 0 && xi < h && xj >= 0 && xj < w)
              cols[r] = x[(static_cast<std::size_t>(c) * h + xi) * w + xj];
          }
  return cols;
}

/// Conv2d forward as im2col, bias fill, then one gemm_acc per sample.
std::vector<float> conv_im2col_gemm(const Tensor& x, const Tensor& weight,
                                    const Tensor& bias, const ConvCase& c,
                                    int oh, int ow) {
  const int n = x.dim(0), pixels = oh * ow, rows = c.in_ch * c.k * c.k;
  std::vector<float> y(static_cast<std::size_t>(n) * c.out_ch * pixels);
  for (int s = 0; s < n; ++s) {
    const auto cols = im2col_cols(
        x.data() + static_cast<std::size_t>(s) * c.in_ch * c.h * c.w,
        c.in_ch, c.h, c.w, c.k, c.stride, c.pad, oh, ow);
    float* ys = y.data() + static_cast<std::size_t>(s) * c.out_ch * pixels;
    for (int oc = 0; oc < c.out_ch; ++oc)
      std::fill(ys + oc * pixels, ys + (oc + 1) * pixels, bias[oc]);
    gemm_acc(weight.data(), cols.data(), ys, c.out_ch, rows, pixels);
  }
  return y;
}

/// ConvTranspose2d forward as a zeroed [pixels x OC*K*K] block from
/// gemm_at_b_acc, then bias fill and a scatter-add over (oc, ki, kj, i, j).
std::vector<float> deconv_gemm_col2im(const Tensor& x, const Tensor& weight,
                                      const Tensor& bias, const ConvCase& c,
                                      int oh, int ow) {
  const int n = x.dim(0), pixels = c.h * c.w, taps = c.out_ch * c.k * c.k;
  std::vector<float> y(static_cast<std::size_t>(n) * c.out_ch * oh * ow);
  for (int s = 0; s < n; ++s) {
    std::vector<float> cols(static_cast<std::size_t>(pixels) * taps, 0.0f);
    gemm_at_b_acc(x.data() + static_cast<std::size_t>(s) * c.in_ch * pixels,
                  weight.data(), cols.data(), pixels, c.in_ch, taps);
    float* ys = y.data() + static_cast<std::size_t>(s) * c.out_ch * oh * ow;
    for (int oc = 0; oc < c.out_ch; ++oc)
      std::fill(ys + oc * oh * ow, ys + (oc + 1) * oh * ow, bias[oc]);
    int t = 0;
    for (int oc = 0; oc < c.out_ch; ++oc)
      for (int ki = 0; ki < c.k; ++ki)
        for (int kj = 0; kj < c.k; ++kj, ++t)
          for (int i = 0; i < c.h; ++i)
            for (int j = 0; j < c.w; ++j) {
              const int yi = i * c.stride + ki - c.pad;
              const int yj = j * c.stride + kj - c.pad;
              if (yi >= 0 && yi < oh && yj >= 0 && yj < ow)
                ys[(static_cast<std::size_t>(oc) * oh + yi) * ow + yj] +=
                    cols[static_cast<std::size_t>(i * c.w + j) * taps + t];
            }
  }
  return y;
}

using ConvPerIsa = GemmPerIsa;

TEST_F(ConvPerIsa, ForwardMatchesIm2colGemmBitwise) {
  // Off the paper shapes: OC below, at and above gemm_mr; product widths
  // (pixels) below, at and above gemm_nr; K*K below, at and above the
  // AVX2 gemm_nr, so packs, tiles and the deconv's per-channel scatter
  // all cross their edges.  K = 1 at stride 1, pad 0 is the in-place path.
  constexpr int kGrids[][2] = {{1, 1}, {3, 5}, {4, 4}, {1, 17}, {5, 8}};
  Rng rng(51);
  for (simd::Isa isa : gemm_isas()) {
    ASSERT_TRUE(simd::set_isa(isa));
    int checked = 0;
    for (int k : {1, 3, 4, 5})
      for (int stride : {1, 2})
        for (int pad = 0; pad <= 2; ++pad)
          for (const auto& grid : kGrids)
            for (int oc : {1, 7, 13}) {
              const std::string where =
                  std::string(simd::isa_name(isa)) + " oc=" +
                  std::to_string(oc) + " k=" + std::to_string(k) +
                  " stride=" + std::to_string(stride) +
                  " pad=" + std::to_string(pad) + " grid=" +
                  std::to_string(grid[0]) + "x" + std::to_string(grid[1]);
              const int ic = 1 + oc % 4;
              // Conv2d: the grid is the output.
              ConvCase c{ic, oc, k, stride, pad,
                         (grid[0] - 1) * stride + k - 2 * pad,
                         (grid[1] - 1) * stride + k - 2 * pad};
              if (c.h >= 1 && c.w >= 1) {
                Conv2d conv(ic, oc, k, stride, pad, rng);
                Tensor& bias = conv.parameters()[1]->value;
                for (std::size_t i = 0; i < bias.numel(); ++i)
                  bias[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
                const Tensor x = random_tensor({2, ic, c.h, c.w}, rng);
                const Tensor y = conv.forward(x, false);
                ASSERT_EQ(y.dim(2), grid[0]) << where;
                ASSERT_EQ(y.dim(3), grid[1]) << where;
                EXPECT_EQ(bits(std::vector<float>(y.data(),
                                                  y.data() + y.numel())),
                          bits(conv_im2col_gemm(x, conv.parameters()[0]->value,
                                                bias, c, grid[0], grid[1])))
                    << "Conv2d " << where;
                ++checked;
              }
              // ConvTranspose2d: the grid is the input.
              c = {ic, oc, k, stride, pad, grid[0], grid[1]};
              ConvTranspose2d deconv(ic, oc, k, stride, pad, rng);
              const int oh = deconv.out_extent(c.h);
              const int ow = deconv.out_extent(c.w);
              if (oh < 1 || ow < 1) continue;
              Tensor& bias = deconv.parameters()[1]->value;
              for (std::size_t i = 0; i < bias.numel(); ++i)
                bias[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
              // Post-ReLU-like input: some exact zeros.
              Tensor x = random_tensor({2, ic, c.h, c.w}, rng);
              for (std::size_t i = 0; i < x.numel(); ++i)
                if (x[i] < -0.4f) x[i] = 0.0f;
              const Tensor y = deconv.forward(x, false);
              EXPECT_EQ(bits(std::vector<float>(y.data(),
                                                y.data() + y.numel())),
                        bits(deconv_gemm_col2im(
                            x, deconv.parameters()[0]->value, bias, c, oh, ow)))
                  << "ConvTranspose2d " << where;
              ++checked;
            }
    EXPECT_GT(checked, 400) << simd::isa_name(isa);
  }
}

TEST(Activations, ReluForwardAndGrad) {
  ReLU relu;
  const Tensor x = Tensor::from_vector(
      {1, 6}, {-1.0f, 0.0f, 2.0f, -3.0f, -0.0f, std::nanf("")});
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  // -0.0f and NaN both come out as +0.0f (a select, not std::max).
  for (std::size_t i : {0u, 1u, 3u, 4u, 5u})
    EXPECT_EQ(std::bit_cast<std::uint32_t>(y[i]), 0u) << "element " << i;
  const Tensor y_inf = relu.forward(x, false);
  EXPECT_EQ(bits(y_inf.vec()), bits(y.vec()));
  const Tensor g = relu.backward(Tensor::full({1, 6}, 1.0f));
  const std::vector<float> want_g = {0.0f, 0.0f, 1.0f, 0.0f, 0.0f, 0.0f};
  EXPECT_EQ(g.vec(), want_g);
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

struct SpatialAttentionRef {
  Tensor y, grad_in;
};

/// Per-pixel Tensor::at walk of SpatialAttention forward and backward.
/// `conv` carries the layer's conv parameters; the backward mirrors the
/// layer's arithmetic so the argmax channel shows up bitwise in grad_in.
SpatialAttentionRef spatial_attention_reference(const Tensor& x,
                                                Conv2d& conv,
                                                const Tensor& grad_out) {
  const int n = x.dim(0), c_dim = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor maps({n, 2, h, w});
  std::vector<int> argmax(static_cast<std::size_t>(n) * h * w);
  for (int s = 0; s < n; ++s)
    for (int i = 0; i < h; ++i)
      for (int j = 0; j < w; ++j) {
        float sum = 0.0f, best = x.at(s, 0, i, j);
        int best_c = 0;
        for (int c = 0; c < c_dim; ++c) {
          sum += x.at(s, c, i, j);
          if (x.at(s, c, i, j) > best) {
            best = x.at(s, c, i, j);
            best_c = c;
          }
        }
        maps.at(s, 0, i, j) = sum / static_cast<float>(c_dim);
        maps.at(s, 1, i, j) = best;
        argmax[(static_cast<std::size_t>(s) * h + i) * w + j] = best_c;
      }
  const Tensor pre = conv.forward(maps, true);
  SpatialAttentionRef out{x, grad_out};
  Tensor dpre({n, 1, h, w});
  for (int s = 0; s < n; ++s)
    for (int i = 0; i < h; ++i)
      for (int j = 0; j < w; ++j) {
        const float mv = sigmoid_value(pre.at(s, 0, i, j));
        float dm = 0.0f;
        for (int c = 0; c < c_dim; ++c) {
          out.y.at(s, c, i, j) *= mv;
          dm += grad_out.at(s, c, i, j) * x.at(s, c, i, j);
          out.grad_in.at(s, c, i, j) = grad_out.at(s, c, i, j) * mv;
        }
        dpre.at(s, 0, i, j) = dm * mv * (1.0f - mv);
      }
  const Tensor dmaps = conv.backward(dpre);
  for (int s = 0; s < n; ++s)
    for (int i = 0; i < h; ++i)
      for (int j = 0; j < w; ++j) {
        const float dmean = dmaps.at(s, 0, i, j) / static_cast<float>(c_dim);
        for (int c = 0; c < c_dim; ++c) out.grad_in.at(s, c, i, j) += dmean;
        const int c_max = argmax[(static_cast<std::size_t>(s) * h + i) * w + j];
        out.grad_in.at(s, c_max, i, j) += dmaps.at(s, 1, i, j);
      }
  return out;
}

TEST(SpatialAttention, ForwardMatchesPerPixelReference) {
  Rng rng(49);
  SpatialAttention att(rng, 3);
  Conv2d conv(2, 1, 3, 1, 1, rng);
  conv.parameters()[0]->value = att.parameters()[0]->value;
  conv.parameters()[1]->value = Tensor::full({1}, 0.25f);
  att.parameters()[1]->value = Tensor::full({1}, 0.25f);
  Tensor x = random_tensor({2, 4, 5, 6}, rng);
  // Tied channel maxima: channels 1 and 3 share the max on even pixels,
  // and every channel ties on a diagonal.  The argmax must stay the
  // lowest tied channel.
  for (int s = 0; s < 2; ++s)
    for (int i = 0; i < 5; ++i)
      for (int j = 0; j < 6; ++j) {
        if (i == j) {
          for (int c = 0; c < 4; ++c) x.at(s, c, i, j) = 0.5f;
        } else if ((i + j) % 2 == 0) {
          x.at(s, 1, i, j) = 2.0f;
          x.at(s, 3, i, j) = 2.0f;
        }
      }
  const Tensor grad_out = random_tensor({2, 4, 5, 6}, rng);
  const SpatialAttentionRef ref =
      spatial_attention_reference(x, conv, grad_out);
  EXPECT_EQ(bits(att.forward(x, false).vec()), bits(ref.y.vec()));
  EXPECT_EQ(bits(att.forward(x, true).vec()), bits(ref.y.vec()));
  EXPECT_EQ(bits(att.backward(grad_out).vec()), bits(ref.grad_in.vec()));
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


// ---- NN output golden: the bits of a paper-shaped batched forward.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/// FNV-1a over the float bit patterns of `t`, continuing from `h`.
std::uint64_t bits_hash(const Tensor& t, std::uint64_t h = kFnvOffset) {
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const auto v = std::bit_cast<std::uint32_t>(t[i]);
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// forward_batch output hash of a fixed-seed ProtocolConfig::standard()
/// regressor on a fixed input at batch 2, under the active ISA.
std::uint64_t golden_forward_hash() {
  const pose::PoseNetConfig cfg = eval::ProtocolConfig::standard().posenet;
  Rng rng(47);
  pose::HandJointRegressor model(cfg, rng);
  constexpr int kBatch = 2;
  Rng xrng(48);
  const Tensor x =
      random_tensor({kBatch * cfg.frames_per_sample(), cfg.velocity_bins,
                     cfg.range_bins, cfg.angle_bins},
                    xrng);
  const Tensor y = model.forward_batch(x, kBatch);
  EXPECT_EQ(y.dim(0), kBatch * cfg.sequence_segments);
  EXPECT_EQ(y.dim(1), 63);
  return bits_hash(y);
}

// Both hashes were captured before the data-movement passes around the
// GEMM (spatial attention, ReLU, im2col, the transposed-B pack) were
// rewritten; any drift is a change to NN arithmetic, not a tolerance
// issue.  The scalar pin sees the shared code paths; the AVX2 pin sees
// what only the 8-lane kernels do (pack tails, transpose blocks).
using NnGolden = GemmPerIsa;

TEST_F(NnGolden, ScalarForwardBatchHashUnchanged) {
  ASSERT_TRUE(simd::set_isa(simd::Isa::kScalar));
  EXPECT_EQ(golden_forward_hash(), 0x0866cfb6948dd452ull);
}

TEST_F(NnGolden, Avx2ForwardBatchHashUnchanged) {
  if (!simd::isa_supported(simd::Isa::kAvx2)) GTEST_SKIP() << "no AVX2";
  ASSERT_TRUE(simd::set_isa(simd::Isa::kAvx2));
  EXPECT_EQ(golden_forward_hash(), 0x6851587a78868e97ull);
}

// The AVX-512 table's float entries are the AVX2 ones, so its NN bits
// are the AVX2 pin.
TEST_F(NnGolden, Avx512ForwardBatchHashIsTheAvx2One) {
  if (!simd::isa_supported(simd::Isa::kAvx512)) GTEST_SKIP() << "no AVX-512";
  ASSERT_TRUE(simd::set_isa(simd::Isa::kAvx512));
  EXPECT_EQ(golden_forward_hash(), 0x6851587a78868e97ull);
}

// ---- The forward's two halves: per-frame features, then the head.

/// Frames [first, first + count) of `x` as their own tensor.
Tensor frame_slice(const Tensor& x, int first, int count) {
  Tensor out({count, x.dim(1), x.dim(2), x.dim(3)});
  const std::size_t per = x.numel() / static_cast<std::size_t>(x.dim(0));
  std::copy(x.data() + static_cast<std::size_t>(first) * per,
            x.data() + static_cast<std::size_t>(first + count) * per,
            out.data());
  return out;
}

using ForwardSplit = GemmPerIsa;

TEST_F(ForwardSplit, FrameFeaturesAreIndependentOfFrameGrouping) {
  // A server computes a window's features a frame at a time as frames
  // arrive; each frame's rows must equal the stacked pass over two
  // paper-config windows, whatever the grouping.
  const pose::PoseNetConfig cfg = eval::ProtocolConfig::standard().posenet;
  const int frames = cfg.frames_per_sample();
  for (simd::Isa isa : gemm_isas()) {
    ASSERT_TRUE(simd::set_isa(isa));
    Rng rng(51);
    pose::HandJointRegressor model(cfg, rng);
    Rng xrng(52);
    const Tensor x = random_tensor(
        {2 * frames, cfg.velocity_bins, cfg.range_bins, cfg.angle_bins},
        xrng);
    const Tensor stacked = model.frame_features(x);
    ASSERT_EQ(stacked.dim(0), 2 * frames);
    const auto per = static_cast<std::size_t>(model.frame_feature_numel());
    ASSERT_EQ(stacked.numel(), static_cast<std::size_t>(2 * frames) * per);
    const std::vector<std::vector<int>> groupings = {
        std::vector<int>(static_cast<std::size_t>(frames), 1),
        {3, frames - 3},
        {frames}};
    for (const auto& groups : groupings) {
      int first = 0;
      for (const int count : groups) {
        const Tensor part = model.frame_features(frame_slice(x, first, count));
        ASSERT_EQ(part.numel(), static_cast<std::size_t>(count) * per);
        for (std::size_t i = 0; i < part.numel(); ++i)
          ASSERT_EQ(std::bit_cast<std::uint32_t>(part[i]),
                    std::bit_cast<std::uint32_t>(
                        stacked[static_cast<std::size_t>(first) * per + i]))
              << simd::isa_name(isa) << " frames " << first << "+" << count
              << " element " << i;
        first += count;
      }
      ASSERT_EQ(first, frames);
    }
  }
}

TEST_F(ForwardSplit, HalvesComposeToForwardBatchBitwise) {
  const pose::PoseNetConfig cfg = eval::ProtocolConfig::standard().posenet;
  for (simd::Isa isa : gemm_isas()) {
    ASSERT_TRUE(simd::set_isa(isa));
    Rng rng(53);
    pose::HandJointRegressor model(cfg, rng);
    for (const int batch : {1, 3}) {
      Rng xrng(54);
      const Tensor x = random_tensor(
          {batch * cfg.frames_per_sample(), cfg.velocity_bins,
           cfg.range_bins, cfg.angle_bins},
          xrng);
      const Tensor whole = model.forward_batch(x, batch);
      const Tensor split =
          model.forward_from_features(model.frame_features(x), batch);
      ASSERT_TRUE(whole.same_shape(split));
      EXPECT_EQ(bits(whole.vec()), bits(split.vec()))
          << simd::isa_name(isa) << " batch " << batch;
    }
  }
}

// ---- Training golden: the bits of one forward(training) + backward.

/// Hash of every parameter gradient of a fixed-seed tiny regressor after
/// one training forward and a backward of a fixed upstream gradient,
/// under the active ISA.  NnGolden pins only the inference forward; this
/// pins the training forward (the recurrent layer's cached path) and BPTT.
std::uint64_t golden_train_hash(pose::TemporalKind temporal) {
  pose::PoseNetConfig cfg;
  cfg.sequence_segments = 3;
  cfg.velocity_bins = 4;
  cfg.range_bins = 8;
  cfg.angle_bins = 8;
  cfg.feature_dim = 24;
  cfg.lstm_hidden = 16;
  cfg.temporal = temporal;
  cfg.spacenet.stem_channels = 4;
  cfg.spacenet.block1_channels = 6;
  cfg.spacenet.block2_channels = 6;
  Rng rng(49);
  pose::HandJointRegressor model(cfg, rng);
  Rng xrng(50);
  const Tensor x = random_tensor({cfg.frames_per_sample(), cfg.velocity_bins,
                                  cfg.range_bins, cfg.angle_bins},
                                 xrng);
  const Tensor grad = random_tensor({cfg.sequence_segments, 63}, xrng);
  const auto params = model.parameters();
  zero_grads(params);
  (void)model.forward(x, true);
  model.backward(grad);
  std::uint64_t h = kFnvOffset;
  for (const Parameter* p : params) h = bits_hash(p->grad, h);
  return h;
}

// Captured before the LSTM's one-sequence and batched loops became one;
// any drift is a change to training arithmetic, not a tolerance issue.
using TrainGolden = GemmPerIsa;

TEST_F(TrainGolden, ScalarGradientHashesUnchanged) {
  ASSERT_TRUE(simd::set_isa(simd::Isa::kScalar));
  EXPECT_EQ(golden_train_hash(pose::TemporalKind::kLstm),
            0x4f7171e5234763acull);
  EXPECT_EQ(golden_train_hash(pose::TemporalKind::kGru),
            0xe44a0d2459d6fb8full);
}

TEST_F(TrainGolden, Avx2GradientHashesUnchanged) {
  if (!simd::isa_supported(simd::Isa::kAvx2)) GTEST_SKIP() << "no AVX2";
  ASSERT_TRUE(simd::set_isa(simd::Isa::kAvx2));
  EXPECT_EQ(golden_train_hash(pose::TemporalKind::kLstm),
            0x10dc92b3ad10cde8ull);
  EXPECT_EQ(golden_train_hash(pose::TemporalKind::kGru),
            0x87b997d2469fb808ull);
}

TEST_F(TrainGolden, Avx512GradientHashesAreTheAvx2Ones) {
  if (!simd::isa_supported(simd::Isa::kAvx512)) GTEST_SKIP() << "no AVX-512";
  ASSERT_TRUE(simd::set_isa(simd::Isa::kAvx512));
  EXPECT_EQ(golden_train_hash(pose::TemporalKind::kLstm),
            0x10dc92b3ad10cde8ull);
  EXPECT_EQ(golden_train_hash(pose::TemporalKind::kGru),
            0x87b997d2469fb808ull);
}

}  // namespace
}  // namespace mmhand::nn
