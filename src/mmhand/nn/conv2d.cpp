#include "mmhand/nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "mmhand/common/parallel.hpp"
#include "mmhand/nn/gemm.hpp"

namespace mmhand::nn {

namespace {

/// First output index j >= 0 whose tap j * stride + off reaches `edge`,
/// capped at `count`.
int first_tap_at(int edge, int off, int stride, int count) {
  const int num = edge - off;
  return num <= 0 ? 0 : std::min(count, (num + stride - 1) / stride);
}

/// Gathers one [ch, h, w] sample into im2col layout: one row per
/// (channel, ki, kj) triple, one column per pixel of the [oh x ow] conv
/// output grid; taps that fall in the padding read zero.  The block is
/// zeroed once; per triple, output rows [i_lo, i_hi) and columns
/// [j_lo, j_hi) are the ones whose taps land inside the input, and only
/// that interior is copied (contiguously at stride 1).
void im2col(const float* x, int ch, int h, int w, int kernel, int stride,
            int pad, int oh, int ow, float* cols) {
  const std::size_t plane = static_cast<std::size_t>(oh) * ow;
  std::fill(cols, cols + plane * ch * kernel * kernel, 0.0f);
  for (int c = 0; c < ch; ++c)
    for (int ki = 0; ki < kernel; ++ki)
      for (int kj = 0; kj < kernel; ++kj, cols += plane) {
        const int di = ki - pad, dj = kj - pad;
        const int i_lo = first_tap_at(0, di, stride, oh);
        const int i_hi = std::max(i_lo, first_tap_at(h, di, stride, oh));
        const int j_lo = first_tap_at(0, dj, stride, ow);
        const int j_hi = std::max(j_lo, first_tap_at(w, dj, stride, ow));
        for (int i = i_lo; i < i_hi; ++i) {
          const float* src =
              x + (static_cast<std::size_t>(c) * h + i * stride + di) * w;
          float* dst = cols + static_cast<std::size_t>(i) * ow;
          if (stride == 1)
            std::copy(src + j_lo + dj, src + j_hi + dj, dst + j_lo);
          else
            for (int j = j_lo; j < j_hi; ++j) dst[j] = src[j * stride + dj];
        }
      }
}

/// The adjoint of im2col: scatter-adds each column entry back onto the
/// [ch, h, w] pixel it was gathered from.  Entry (row r, pixel p) is read
/// from cols[r * row_stride + p * pix_stride], so one walk serves both the
/// [rows x pixels] layout and its transpose.  The walk order is fixed, so
/// every output element sums its taps in the same order on every call.
void col2im(const float* cols, std::size_t row_stride, std::size_t pix_stride,
            int ch, int h, int w, int kernel, int stride, int pad, int oh,
            int ow, float* x) {
  for (int c = 0; c < ch; ++c)
    for (int ki = 0; ki < kernel; ++ki)
      for (int kj = 0; kj < kernel; ++kj, cols += row_stride)
        for (int i = 0; i < oh; ++i) {
          const int dst_i = i * stride + ki - pad;
          if (dst_i < 0 || dst_i >= h) continue;
          float* dst = x + (static_cast<std::size_t>(c) * h + dst_i) * w;
          for (int j = 0; j < ow; ++j) {
            const int dst_j = j * stride + kj - pad;
            if (dst_j >= 0 && dst_j < w)
              dst[dst_j] += cols[(static_cast<std::size_t>(i) * ow + j) *
                                 pix_stride];
          }
        }
}

/// Per-thread im2col staging, grown on demand: steady-state inference
/// forwards allocate nothing here (audited in
/// scripts/purity_allowlist.json).
float* im2col_scratch(std::size_t floats) {
  thread_local std::vector<float> buf;
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
}

}  // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Tensor::randn(
                  {out_channels, in_channels, kernel, kernel}, rng,
                  std::sqrt(2.0 / (in_channels * kernel * kernel))),
              "conv.weight"),
      bias_(Tensor::zeros({out_channels}), "conv.bias") {
  MMHAND_CHECK(in_channels >= 1 && out_channels >= 1, "Conv2d channels");
  MMHAND_CHECK(kernel >= 1 && stride >= 1 && pad >= 0, "Conv2d geometry");
}

Tensor Conv2d::forward(const Tensor& x, bool training) {
  MMHAND_CHECK(x.rank() == 4 && x.dim(1) == in_ch_,
               "Conv2d expects [N, " << in_ch_ << ", H, W]");
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_extent(h), ow = out_extent(w);
  MMHAND_CHECK(oh >= 1 && ow >= 1, "Conv2d output collapsed");
  if (training) cached_input_ = x;

  const int col_rows = in_ch_ * kernel_ * kernel_;
  const int col_cols = oh * ow;

  Tensor y({n, out_ch_, oh, ow});
  // Samples write disjoint output slices and each runs the exact serial
  // arithmetic, so the batch loop parallelizes with bitwise-identical
  // results at any thread count.  The gemm below notices the enclosing
  // region and stays serial, avoiding nested-pool oversubscription; a
  // single-sample batch (n == 1, the streaming-inference shape) keeps
  // gemm's own column-chunk parallelism instead.
  parallel_for(0, n, 1, [&](std::int64_t s64) {
    const int s = static_cast<int>(s64);
    float* cols = im2col_scratch(static_cast<std::size_t>(col_rows) *
                                 col_cols);
    im2col(x.data() + static_cast<std::size_t>(s) * in_ch_ * h * w, in_ch_, h,
           w, kernel_, stride_, pad_, oh, ow, cols);
    // y_s = W_flat [OC x col_rows] * cols [col_rows x col_cols]
    float* ys = y.data() +
                static_cast<std::size_t>(s) * out_ch_ * oh * ow;
    for (int oc = 0; oc < out_ch_; ++oc) {
      const float b = bias_.value[static_cast<std::size_t>(oc)];
      float* dst = ys + static_cast<std::size_t>(oc) * col_cols;
      for (int j = 0; j < col_cols; ++j) dst[j] = b;
    }
    gemm_acc(weight_.value.data(), cols, ys, out_ch_, col_rows,
             col_cols);
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  MMHAND_CHECK(!cached_input_.empty(), "Conv2d backward before forward");
  const Tensor& x = cached_input_;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_extent(h), ow = out_extent(w);
  MMHAND_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                   grad_out.dim(1) == out_ch_ && grad_out.dim(2) == oh &&
                   grad_out.dim(3) == ow,
               "Conv2d grad shape");

  const int col_rows = in_ch_ * kernel_ * kernel_;
  const int col_cols = oh * ow;
  std::vector<float> cols(static_cast<std::size_t>(col_rows) * col_cols);
  std::vector<float> dcols(cols.size());

  Tensor grad_in = Tensor::zeros(x.shape());
  // Stays serial: every sample accumulates into the shared weight/bias
  // gradients, and a deterministic accumulation order is part of the
  // reproducibility contract.
  for (int s = 0; s < n; ++s) {
    // Rebuild the column matrix (cheaper than caching it per sample).
    const std::size_t in_off = static_cast<std::size_t>(s) * in_ch_ * h * w;
    im2col(x.data() + in_off, in_ch_, h, w, kernel_, stride_, pad_, oh, ow,
           cols.data());
    const float* gs = grad_out.data() +
                      static_cast<std::size_t>(s) * out_ch_ * oh * ow;
    for (int oc = 0; oc < out_ch_; ++oc) {
      const float* g = gs + static_cast<std::size_t>(oc) * col_cols;
      float& db = bias_.grad[static_cast<std::size_t>(oc)];
      for (int j = 0; j < col_cols; ++j) db += g[j];
    }
    // dW += gs [OC x col_cols] * cols^T.
    gemm_a_bt_acc(gs, cols.data(), weight_.grad.data(), out_ch_, col_cols,
                  col_rows);
    // dcols = W^T [col_rows x OC] * gs [OC x col_cols]
    std::fill(dcols.begin(), dcols.end(), 0.0f);
    gemm_at_b_acc(weight_.value.data(), gs, dcols.data(), col_rows, out_ch_,
                  col_cols);
    col2im(dcols.data(), col_cols, 1, in_ch_, h, w, kernel_, stride_, pad_, oh,
           ow, grad_in.data() + in_off);
  }
  return grad_in;
}

ConvTranspose2d::ConvTranspose2d(int in_channels, int out_channels,
                                 int kernel, int stride, int pad, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Tensor::randn(
                  {in_channels, out_channels, kernel, kernel}, rng,
                  std::sqrt(2.0 / (in_channels * kernel * kernel))),
              "deconv.weight"),
      bias_(Tensor::zeros({out_channels}), "deconv.bias") {
  MMHAND_CHECK(in_channels >= 1 && out_channels >= 1, "deconv channels");
  MMHAND_CHECK(kernel >= 1 && stride >= 1 && pad >= 0, "deconv geometry");
}

Tensor ConvTranspose2d::forward(const Tensor& x, bool training) {
  MMHAND_CHECK(x.rank() == 4 && x.dim(1) == in_ch_,
               "deconv expects [N, " << in_ch_ << ", H, W]");
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_extent(h), ow = out_extent(w);
  MMHAND_CHECK(oh >= 1 && ow >= 1, "deconv output collapsed");
  if (training) cached_input_ = x;

  // Conv view (see conv2d.hpp): the deconv output is the conv input (OC
  // channels, oh x ow) and the deconv input the conv output grid (IC
  // channels, h x w).
  const int taps = out_ch_ * kernel_ * kernel_;
  const int pixels = h * w;

  Tensor y({n, out_ch_, oh, ow});
  // Per-sample parallel as in Conv2d::forward; each sample runs the same
  // serial arithmetic, so results do not depend on N or the thread count.
  parallel_for(0, n, 1, [&](std::int64_t s64) {
    const int s = static_cast<int>(s64);
    // cols [pixels x taps] = x_s^T * W_flat [IC x taps].
    const std::size_t cols_len = static_cast<std::size_t>(pixels) * taps;
    float* cols = im2col_scratch(cols_len);
    for (std::size_t i = 0; i < cols_len; ++i) cols[i] = 0.0f;
    gemm_at_b_acc(x.data() + static_cast<std::size_t>(s) * in_ch_ * pixels,
                  weight_.value.data(), cols, pixels, in_ch_, taps);
    float* ys = y.data() + static_cast<std::size_t>(s) * out_ch_ * oh * ow;
    for (int oc = 0; oc < out_ch_; ++oc) {
      const float b = bias_.value[static_cast<std::size_t>(oc)];
      float* dst = ys + static_cast<std::size_t>(oc) * oh * ow;
      for (int j = 0; j < oh * ow; ++j) dst[j] = b;
    }
    col2im(cols, 1, static_cast<std::size_t>(taps), out_ch_, oh, ow, kernel_,
           stride_, pad_, h, w, ys);
  });
  return y;
}

Tensor ConvTranspose2d::backward(const Tensor& grad_out) {
  MMHAND_CHECK(!cached_input_.empty(), "deconv backward before forward");
  const Tensor& x = cached_input_;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_extent(h), ow = out_extent(w);
  MMHAND_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                   grad_out.dim(1) == out_ch_ && grad_out.dim(2) == oh &&
                   grad_out.dim(3) == ow,
               "deconv grad shape");

  const int taps = out_ch_ * kernel_ * kernel_;
  const int pixels = h * w;
  float* cols = im2col_scratch(static_cast<std::size_t>(taps) * pixels);

  Tensor grad_in = Tensor::zeros(x.shape());
  // Serial over samples: they all accumulate into the shared weight/bias
  // gradients in a fixed order.
  for (int s = 0; s < n; ++s) {
    const float* gs = grad_out.data() +
                      static_cast<std::size_t>(s) * out_ch_ * oh * ow;
    for (int oc = 0; oc < out_ch_; ++oc) {
      const float* g = gs + static_cast<std::size_t>(oc) * oh * ow;
      float acc = 0.0f;
      for (int j = 0; j < oh * ow; ++j) acc += g[j];
      bias_.grad[static_cast<std::size_t>(oc)] += acc;
    }
    // cols [taps x pixels] = im2col(grad_out_s) on the conv-view geometry.
    im2col(gs, out_ch_, oh, ow, kernel_, stride_, pad_, h, w, cols);
    const std::size_t in_off = static_cast<std::size_t>(s) * in_ch_ * pixels;
    // grad_in_s [IC x pixels] = W_flat [IC x taps] * cols.
    gemm_acc(weight_.value.data(), cols, grad_in.data() + in_off, in_ch_, taps,
             pixels);
    // dW [IC x taps] += x_s [IC x pixels] * cols^T.
    gemm_a_bt_acc(x.data() + in_off, cols, weight_.grad.data(), in_ch_, pixels,
                  taps);
  }
  return grad_in;
}

}  // namespace mmhand::nn
