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

/// Output rows [lo, hi) of a [count]-long conv output axis whose tap
/// j * stride + off lands inside an input axis of extent `extent`.
struct TapRange {
  int lo, hi;
};

TapRange taps_inside(int extent, int off, int stride, int count) {
  const int lo = first_tap_at(0, off, stride, count);
  return {lo, std::max(lo, first_tap_at(extent, off, stride, count))};
}

/// Gathers one [ch, h, w] sample into im2col layout: one row per
/// (channel, ki, kj) triple, one column per pixel of the [oh x ow] conv
/// output grid; taps that fall in the padding read zero.  The block is
/// zeroed once; per (ki, kj), output rows `ri` and columns `rj` are the
/// ones whose taps land inside the input, and only that interior is
/// copied (contiguously at stride 1) for every channel.
void im2col(const float* x, int ch, int h, int w, int kernel, int stride,
            int pad, int oh, int ow, float* cols) {
  const std::size_t plane = static_cast<std::size_t>(oh) * ow;
  std::fill(cols, cols + plane * ch * kernel * kernel, 0.0f);
  for (int ki = 0; ki < kernel; ++ki)
    for (int kj = 0; kj < kernel; ++kj) {
      const int di = ki - pad, dj = kj - pad;
      const TapRange ri = taps_inside(h, di, stride, oh);
      const TapRange rj = taps_inside(w, dj, stride, ow);
      for (int c = 0; c < ch; ++c) {
        float* row =
            cols + ((static_cast<std::size_t>(c) * kernel + ki) * kernel +
                    kj) * plane;
        for (int i = ri.lo; i < ri.hi; ++i) {
          const float* src =
              x + (static_cast<std::size_t>(c) * h + i * stride + di) * w;
          float* dst = row + static_cast<std::size_t>(i) * ow;
          if (stride == 1)
            std::copy(src + rj.lo + dj, src + rj.hi + dj, dst + rj.lo);
          else
            for (int j = rj.lo; j < rj.hi; ++j) dst[j] = src[j * stride + dj];
        }
      }
    }
}

/// The adjoint of im2col: scatter-adds each column entry back onto the
/// [ch, h, w] pixel it was gathered from.  Entry (row r, pixel p) is read
/// from cols[r * row_stride + p * pix_stride], so one walk serves both the
/// [rows x pixels] layout and its transpose.  The walk order is fixed —
/// every output element takes its taps in ascending (ki, kj) order — so
/// it sums them the same way on every call.
void col2im(const float* cols, std::size_t row_stride, std::size_t pix_stride,
            int ch, int h, int w, int kernel, int stride, int pad, int oh,
            int ow, float* x) {
  for (int ki = 0; ki < kernel; ++ki)
    for (int kj = 0; kj < kernel; ++kj) {
      const int di = ki - pad, dj = kj - pad;
      const TapRange ri = taps_inside(h, di, stride, oh);
      const TapRange rj = taps_inside(w, dj, stride, ow);
      for (int c = 0; c < ch; ++c) {
        const float* row =
            cols + ((static_cast<std::size_t>(c) * kernel + ki) * kernel +
                    kj) * row_stride;
        for (int i = ri.lo; i < ri.hi; ++i) {
          float* dst =
              x + (static_cast<std::size_t>(c) * h + i * stride + di) * w;
          const float* src =
              row + static_cast<std::size_t>(i) * ow * pix_stride;
          for (int j = rj.lo; j < rj.hi; ++j)
            dst[j * stride + dj] += src[j * pix_stride];
        }
      }
    }
}

/// Copies one [ch, h, w] sample into a [ch, h + 2*pad, w + 2*pad] plane
/// with a zero border.
void pad_sample(const float* x, int ch, int h, int w, int pad, float* dst) {
  const int wp = w + 2 * pad;
  for (int c = 0; c < ch; ++c) {
    dst = std::fill_n(dst, pad * wp, 0.0f);
    for (int i = 0; i < h; ++i, x += w) {
      dst = std::fill_n(dst, pad, 0.0f);
      dst = std::copy_n(x, w, dst);
      dst = std::fill_n(dst, pad, 0.0f);
    }
    dst = std::fill_n(dst, pad * wp, 0.0f);
  }
}

/// Per-thread conv staging, grown on demand: `floats` floats (a padded
/// sample, a deconv channel tile, or a backward im2col block) and
/// `offsets` ints (gather offsets).  Steady-state inference forwards
/// allocate nothing here (audited in scripts/purity_allowlist.json).
struct ConvScratch {
  float* floats;
  int* offsets;
};

ConvScratch im2col_scratch(std::size_t floats, std::size_t offsets = 0) {
  thread_local std::vector<float> buf;
  thread_local std::vector<int> off;
  if (buf.size() < floats) buf.resize(floats);
  if (off.size() < offsets) off.resize(offsets);
  return {buf.data(), off.data()};
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
  const std::size_t in_size = static_cast<std::size_t>(in_ch_) * h * w;

  // Implicit GEMM: y_s = W_flat [OC x col_rows] * B [col_rows x col_cols],
  // where B is the im2col block of sample s, never built.  A 1x1, stride-1,
  // pad-0 conv's B is the sample itself.  Otherwise B is gathered from the
  // sample — copied into a zero-bordered plane when pad > 0 — where tap
  // (c, ki, kj) of output pixel (i, j) sits at row offset
  // (c*hp + ki)*wp + kj plus column offset (i*wp + j)*stride.
  const bool in_place = kernel_ == 1 && stride_ == 1 && pad_ == 0;
  const int hp = h + 2 * pad_, wp = w + 2 * pad_;
  const int* row_off = nullptr;
  const int* col_off = nullptr;
  if (!in_place) {
    int* off = im2col_scratch(0, static_cast<std::size_t>(col_rows) +
                                     col_cols).offsets;
    row_off = off;
    col_off = off + col_rows;
    for (int c = 0; c < in_ch_; ++c)
      for (int ki = 0; ki < kernel_; ++ki)
        for (int kj = 0; kj < kernel_; ++kj)
          *off++ = (c * hp + ki) * wp + kj;
    for (int i = 0; i < oh; ++i)
      for (int j = 0; j < ow; ++j) *off++ = (i * wp + j) * stride_;
  }
  // Packed once on this thread; the sample tasks only read the panels.
  const PackedA wa = gemm_pack_a(weight_.value.data(),
                                 static_cast<std::size_t>(col_rows), 1,
                                 out_ch_, col_rows);

  Tensor y({n, out_ch_, oh, ow});
  // Samples write disjoint output slices and each runs the exact serial
  // arithmetic, so the batch loop parallelizes with bitwise-identical
  // results at any thread count.
  parallel_for(0, n, [&](std::int64_t s64) {
    const int s = static_cast<int>(s64);
    const float* xs = x.data() + static_cast<std::size_t>(s) * in_size;
    float* ys = y.data() + static_cast<std::size_t>(s) * out_ch_ * col_cols;
    for (int oc = 0; oc < out_ch_; ++oc)
      std::fill_n(ys + static_cast<std::size_t>(oc) * col_cols, col_cols,
                  bias_.value[static_cast<std::size_t>(oc)]);
    if (in_place) {
      const GemmScope product(out_ch_, col_rows, col_cols);
      gemm_packed_acc(wa, xs, static_cast<std::size_t>(col_cols), ys,
                      static_cast<std::size_t>(col_cols), col_cols);
      return;
    }
    const float* src = xs;
    if (pad_ > 0) {
      float* plane =
          im2col_scratch(static_cast<std::size_t>(in_ch_) * hp * wp).floats;
      pad_sample(xs, in_ch_, h, w, pad_, plane);
      src = plane;
    }
    const GemmScope product(out_ch_, col_rows, col_cols);
    gemm_gather_acc(wa, src, row_off, col_off, ys,
                    static_cast<std::size_t>(col_cols), col_cols);
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
  const int kk = kernel_ * kernel_;
  const int taps = out_ch_ * kk;
  const int pixels = h * w;
  const std::size_t out_plane = static_cast<std::size_t>(oh) * ow;

  Tensor y({n, out_ch_, oh, ow});
  // Per-sample parallel as in Conv2d::forward; each sample runs the same
  // serial arithmetic, so results do not depend on N or the thread count.
  parallel_for(0, n, [&](std::int64_t s64) {
    const int s = static_cast<int>(s64);
    // cols [pixels x taps] = x_s^T * W_flat [IC x taps], one output
    // channel's kk columns at a time: each lands in a [pixels x kk] tile
    // that col2im scatters onto that channel while it is still in L1.
    const PackedA xt =
        gemm_pack_a(x.data() + static_cast<std::size_t>(s) * in_ch_ * pixels,
                    1, static_cast<std::size_t>(pixels), pixels, in_ch_);
    const std::size_t tile_len = static_cast<std::size_t>(pixels) * kk;
    float* tile = im2col_scratch(tile_len).floats;
    float* ys = y.data() + static_cast<std::size_t>(s) * out_ch_ * out_plane;
    const GemmScope product(pixels, in_ch_, taps);
    for (int oc = 0; oc < out_ch_; ++oc) {
      float* yc = ys + static_cast<std::size_t>(oc) * out_plane;
      std::fill_n(yc, out_plane, bias_.value[static_cast<std::size_t>(oc)]);
      std::fill_n(tile, tile_len, 0.0f);
      const float* w_oc =
          weight_.value.data() + static_cast<std::size_t>(oc) * kk;
      gemm_packed_acc(xt, w_oc, static_cast<std::size_t>(taps), tile,
                      static_cast<std::size_t>(kk), kk);
      col2im(tile, 1, static_cast<std::size_t>(kk), 1, oh, ow, kernel_,
             stride_, pad_, h, w, yc);
    }
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
  float* cols = im2col_scratch(static_cast<std::size_t>(taps) * pixels).floats;

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
