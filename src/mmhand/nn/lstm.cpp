#include "mmhand/nn/lstm.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "mmhand/nn/activations.hpp"
#include "mmhand/nn/gemm.hpp"
#include "mmhand/obs/trace.hpp"

namespace mmhand::nn {

namespace {

/// Per-thread recurrent-state staging, grown on demand: steady-state
/// inference forwards allocate nothing here (audited in
/// scripts/purity_allowlist.json).  Slot selects between the disjoint
/// buffers one forward needs live at once (h_prev, c_prev, step gates).
float* lstm_scratch(int slot, std::size_t floats) {
  thread_local std::vector<float> buf[3];
  auto& b = buf[slot];
  if (b.size() < floats) b.resize(floats);
  return b.data();
}

}  // namespace

Lstm::Lstm(int input_size, int hidden_size, Rng& rng)
    : input_(input_size),
      hidden_(hidden_size),
      w_ih_(Tensor::randn({4 * hidden_size, input_size}, rng,
                          1.0 / std::sqrt(static_cast<double>(input_size))),
            "lstm.w_ih"),
      w_hh_(Tensor::randn({4 * hidden_size, hidden_size}, rng,
                          1.0 / std::sqrt(static_cast<double>(hidden_size))),
            "lstm.w_hh"),
      bias_(Tensor::zeros({4 * hidden_size}), "lstm.bias") {
  MMHAND_CHECK(input_size >= 1 && hidden_size >= 1, "Lstm sizes");
  // Forget-gate bias starts positive so early training remembers.
  for (int i = hidden_; i < 2 * hidden_; ++i)
    bias_.value[static_cast<std::size_t>(i)] = 1.0f;
}

Tensor Lstm::forward(const Tensor& x, bool training) {
  MMHAND_SPAN("nn/lstm_forward");
  MMHAND_CHECK((x.rank() == 2 || x.rank() == 3) &&
                   x.dim(x.rank() - 1) == input_,
               "Lstm expects [T, " << input_ << "] or [B, T, " << input_
                                   << "]");
  MMHAND_CHECK(!training || x.rank() == 2,
               "Lstm training takes one [T, F] sequence");
  const int bsz = x.rank() == 3 ? x.dim(0) : 1;
  const int t_len = x.dim(x.rank() - 2);
  const int h = hidden_;
  Tensor hiddens(x.rank() == 3 ? Shape{bsz, t_len, h} : Shape{t_len, h});

  // Input projections for every (sample, timestep) row in one GEMM: the
  // x-dependent half of the gate pre-activations has no recurrence, so
  // batching it turns B*T matrix-vector products into one multiply.
  Tensor pre({bsz * t_len, 4 * h});
  for (int r0 = 0; r0 < bsz * t_len; ++r0) {
    float* pt = pre.data() + static_cast<std::size_t>(r0) * 4 * h;
    for (int r = 0; r < 4 * h; ++r)
      pt[r] = bias_.value[static_cast<std::size_t>(r)];
  }
  gemm_a_bt_acc(x.data(), w_ih_.value.data(), pre.data(), bsz * t_len,
                input_, 4 * h);

  if (training) {
    gates_ = Tensor({t_len, 4 * h});
    cells_ = Tensor({t_len, h});
  }
  float* h_prev = lstm_scratch(0, static_cast<std::size_t>(bsz) * h);
  float* c_prev = lstm_scratch(1, static_cast<std::size_t>(bsz) * h);
  float* step = lstm_scratch(2, static_cast<std::size_t>(bsz) * 4 * h);
  std::fill(h_prev, h_prev + static_cast<std::size_t>(bsz) * h, 0.0f);
  std::fill(c_prev, c_prev + static_cast<std::size_t>(bsz) * h, 0.0f);
  for (int t = 0; t < t_len; ++t) {
    // Gather this timestep's pre-activations into a contiguous [B, 4H]
    // block, then add the recurrent projection for all samples at once.
    // gemm gives each output element the same ascending-k FMA chain
    // whatever the row count, so each sample's row rounds exactly as a
    // one-sequence (m = 1) step would.
    for (int b = 0; b < bsz; ++b) {
      const float* pt =
          pre.data() +
          (static_cast<std::size_t>(b) * t_len + t) * 4 * h;
      std::copy(pt, pt + 4 * h, step + static_cast<std::size_t>(b) * 4 * h);
    }
    gemm_a_bt_acc(h_prev, w_hh_.value.data(), step, bsz, h, 4 * h);
    for (int b = 0; b < bsz; ++b) {
      float* gt = step + static_cast<std::size_t>(b) * 4 * h;
      float* cb = c_prev + static_cast<std::size_t>(b) * h;
      float* hb = h_prev + static_cast<std::size_t>(b) * h;
      float* ht = hiddens.data() +
                  (static_cast<std::size_t>(b) * t_len + t) * h;
      for (int j = 0; j < h; ++j) {
        const float ig = sigmoid_value(gt[j]);
        const float fg = sigmoid_value(gt[h + j]);
        const float gg = tanh_value(gt[2 * h + j]);
        const float og = sigmoid_value(gt[3 * h + j]);
        gt[j] = ig;
        gt[h + j] = fg;
        gt[2 * h + j] = gg;
        gt[3 * h + j] = og;
        cb[j] = fg * cb[j] + ig * gg;
        ht[j] = og * tanh_value(cb[j]);
        hb[j] = ht[j];
      }
    }
    if (training) {
      std::copy(step, step + 4 * h,
                gates_.data() + static_cast<std::size_t>(t) * 4 * h);
      std::copy(c_prev, c_prev + h,
                cells_.data() + static_cast<std::size_t>(t) * h);
    }
  }

  if (training) {
    cached_input_ = x;
    hiddens_ = hiddens;
  }
  return hiddens;
}

Tensor Lstm::backward(const Tensor& grad_out) {
  MMHAND_SPAN("nn/lstm_backward");
  MMHAND_CHECK(!cached_input_.empty(), "Lstm backward before forward");
  const int t_len = cached_input_.dim(0);
  const int h = hidden_;
  MMHAND_CHECK(grad_out.rank() == 2 && grad_out.dim(0) == t_len &&
                   grad_out.dim(1) == h,
               "Lstm grad shape");

  Tensor grad_in = Tensor::zeros({t_len, input_});
  std::vector<float> dh_next(static_cast<std::size_t>(h), 0.0f);
  std::vector<float> dc_next(static_cast<std::size_t>(h), 0.0f);
  std::vector<float> dgates(static_cast<std::size_t>(4 * h));

  for (int t = t_len - 1; t >= 0; --t) {
    const float* gt = gates_.data() + static_cast<std::size_t>(t) * 4 * h;
    const float* ct = cells_.data() + static_cast<std::size_t>(t) * h;
    const float* c_prev =
        t > 0 ? cells_.data() + static_cast<std::size_t>(t - 1) * h : nullptr;
    const float* h_prev =
        t > 0 ? hiddens_.data() + static_cast<std::size_t>(t - 1) * h
              : nullptr;
    const float* go = grad_out.data() + static_cast<std::size_t>(t) * h;
    const float* xt =
        cached_input_.data() + static_cast<std::size_t>(t) * input_;

    for (int j = 0; j < h; ++j) {
      const float ig = gt[j], fg = gt[h + j], gg = gt[2 * h + j],
                  og = gt[3 * h + j];
      const float tc = tanh_value(ct[j]);
      const float dh = go[j] + dh_next[static_cast<std::size_t>(j)];
      const float dc =
          dh * og * (1.0f - tc * tc) + dc_next[static_cast<std::size_t>(j)];
      const float cp = c_prev ? c_prev[j] : 0.0f;
      // Gate pre-activation gradients.
      dgates[static_cast<std::size_t>(j)] = dc * gg * ig * (1.0f - ig);
      dgates[static_cast<std::size_t>(h + j)] = dc * cp * fg * (1.0f - fg);
      dgates[static_cast<std::size_t>(2 * h + j)] =
          dc * ig * (1.0f - gg * gg);
      dgates[static_cast<std::size_t>(3 * h + j)] =
          dh * tc * og * (1.0f - og);
      dc_next[static_cast<std::size_t>(j)] = dc * fg;
    }

    // Parameter and input gradients; also the recurrent gradient dh_prev.
    std::fill(dh_next.begin(), dh_next.end(), 0.0f);
    float* dx = grad_in.data() + static_cast<std::size_t>(t) * input_;
    for (int r = 0; r < 4 * h; ++r) {
      const float dg = dgates[static_cast<std::size_t>(r)];
      if (dg == 0.0f) continue;
      bias_.grad[static_cast<std::size_t>(r)] += dg;
      float* dwi = w_ih_.grad.data() + static_cast<std::size_t>(r) * input_;
      const float* wi =
          w_ih_.value.data() + static_cast<std::size_t>(r) * input_;
      for (int f = 0; f < input_; ++f) {
        dwi[f] += dg * xt[f];
        dx[f] += dg * wi[f];
      }
      float* dwh = w_hh_.grad.data() + static_cast<std::size_t>(r) * h;
      const float* wh = w_hh_.value.data() + static_cast<std::size_t>(r) * h;
      if (h_prev) {
        for (int j = 0; j < h; ++j) {
          dwh[j] += dg * h_prev[j];
          dh_next[static_cast<std::size_t>(j)] += dg * wh[j];
        }
      }
    }
  }
  return grad_in;
}

}  // namespace mmhand::nn
