#include "mmhand/nn/gru.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "mmhand/nn/activations.hpp"
#include "mmhand/nn/gemm.hpp"
#include "mmhand/obs/trace.hpp"

namespace mmhand::nn {

Gru::Gru(int input_size, int hidden_size, Rng& rng)
    : input_(input_size),
      hidden_(hidden_size),
      w_ih_(Tensor::randn({3 * hidden_size, input_size}, rng,
                          1.0 / std::sqrt(static_cast<double>(input_size))),
            "gru.w_ih"),
      w_hh_(Tensor::randn({3 * hidden_size, hidden_size}, rng,
                          1.0 / std::sqrt(static_cast<double>(hidden_size))),
            "gru.w_hh"),
      bias_ih_(Tensor::zeros({3 * hidden_size}), "gru.bias_ih"),
      bias_hh_(Tensor::zeros({3 * hidden_size}), "gru.bias_hh") {
  MMHAND_CHECK(input_size >= 1 && hidden_size >= 1, "Gru sizes");
}

Tensor Gru::forward(const Tensor& x, bool training) {
  MMHAND_SPAN("nn/gru_forward");
  MMHAND_CHECK((x.rank() == 2 || x.rank() == 3) &&
                   x.dim(x.rank() - 1) == input_,
               "Gru expects [T, " << input_ << "] or [B, T, " << input_
                                  << "]");
  MMHAND_CHECK(!training || x.rank() == 2,
               "Gru training takes one [T, F] sequence");
  const int bsz = x.rank() == 3 ? x.dim(0) : 1;
  const int t_len = x.dim(x.rank() - 2);
  const int h = hidden_;
  Tensor hiddens(x.rank() == 3 ? Shape{bsz, t_len, h} : Shape{t_len, h});

  // Input pre-activations for every (sample, timestep) row in one GEMM;
  // the recurrent half (the candidate uses r . (W_hh h + b_hh), so the two
  // stay separate) is a per-step [B x 3H] GEMM.  The gate math overwrites
  // each pre-activation with its post-activation value, so under training
  // the projection tensor becomes the gate cache.
  Tensor pre_all({bsz * t_len, 3 * h});
  for (int r0 = 0; r0 < bsz * t_len; ++r0) {
    float* pt = pre_all.data() + static_cast<std::size_t>(r0) * 3 * h;
    for (int r = 0; r < 3 * h; ++r)
      pt[r] = bias_ih_.value[static_cast<std::size_t>(r)];
  }
  gemm_a_bt_acc(x.data(), w_ih_.value.data(), pre_all.data(), bsz * t_len,
                input_, 3 * h);

  if (training) hh_n_ = Tensor({t_len, h});
  std::vector<float> h_prev(static_cast<std::size_t>(bsz) * h, 0.0f);
  std::vector<float> hh(static_cast<std::size_t>(bsz) * 3 * h);
  for (int t = 0; t < t_len; ++t) {
    for (int b = 0; b < bsz; ++b)
      std::copy(bias_hh_.value.data(), bias_hh_.value.data() + 3 * h,
                hh.begin() + static_cast<std::ptrdiff_t>(b) * 3 * h);
    gemm_a_bt_acc(h_prev.data(), w_hh_.value.data(), hh.data(), bsz, h,
                  3 * h);
    for (int b = 0; b < bsz; ++b) {
      float* gt = pre_all.data() +
                  (static_cast<std::size_t>(b) * t_len + t) * 3 * h;
      const float* hb = hh.data() + static_cast<std::size_t>(b) * 3 * h;
      float* hp = h_prev.data() + static_cast<std::size_t>(b) * h;
      float* ht = hiddens.data() +
                  (static_cast<std::size_t>(b) * t_len + t) * h;
      for (int j = 0; j < h; ++j) {
        const float r_gate = sigmoid_value(gt[j] + hb[j]);
        const float z_gate = sigmoid_value(gt[h + j] + hb[h + j]);
        const float n_gate =
            tanh_value(gt[2 * h + j] + r_gate * hb[2 * h + j]);
        gt[j] = r_gate;
        gt[h + j] = z_gate;
        gt[2 * h + j] = n_gate;
        ht[j] = (1.0f - z_gate) * n_gate + z_gate * hp[j];
        hp[j] = ht[j];
      }
    }
    if (training)
      std::copy(hh.begin() + 2 * h, hh.begin() + 3 * h,
                hh_n_.data() + static_cast<std::size_t>(t) * h);
  }

  if (training) {
    cached_input_ = x;
    gates_ = std::move(pre_all);
    hiddens_ = hiddens;
  }
  return hiddens;
}

Tensor Gru::backward(const Tensor& grad_out) {
  MMHAND_SPAN("nn/gru_backward");
  MMHAND_CHECK(!cached_input_.empty(), "Gru backward before forward");
  const int t_len = cached_input_.dim(0);
  const int h = hidden_;
  MMHAND_CHECK(grad_out.rank() == 2 && grad_out.dim(0) == t_len &&
                   grad_out.dim(1) == h,
               "Gru grad shape");

  Tensor grad_in = Tensor::zeros({t_len, input_});
  std::vector<float> dh_next(static_cast<std::size_t>(h), 0.0f);
  std::vector<float> d_pre_i(static_cast<std::size_t>(3 * h));
  std::vector<float> d_pre_h(static_cast<std::size_t>(3 * h));

  for (int t = t_len - 1; t >= 0; --t) {
    const float* gt = gates_.data() + static_cast<std::size_t>(t) * 3 * h;
    const float* nh = hh_n_.data() + static_cast<std::size_t>(t) * h;
    const float* h_prev =
        t > 0 ? hiddens_.data() + static_cast<std::size_t>(t - 1) * h
              : nullptr;
    const float* go = grad_out.data() + static_cast<std::size_t>(t) * h;
    const float* xt =
        cached_input_.data() + static_cast<std::size_t>(t) * input_;

    // dh carries the gradient into this step's hidden state; the recurrent
    // path through h_prev accumulates into dh_next for step t-1.
    std::vector<float> dh(static_cast<std::size_t>(h));
    for (int j = 0; j < h; ++j)
      dh[static_cast<std::size_t>(j)] =
          go[j] + dh_next[static_cast<std::size_t>(j)];
    std::fill(dh_next.begin(), dh_next.end(), 0.0f);

    for (int j = 0; j < h; ++j) {
      const float r_gate = gt[j], z_gate = gt[h + j], n_gate = gt[2 * h + j];
      const float hp = h_prev ? h_prev[j] : 0.0f;
      const float dhj = dh[static_cast<std::size_t>(j)];
      // h = (1-z) n + z h_prev
      const float dz = dhj * (hp - n_gate);
      const float dn = dhj * (1.0f - z_gate);
      if (h_prev) dh_next[static_cast<std::size_t>(j)] += dhj * z_gate;
      // n = tanh(pre_n + r * hh_n)
      const float dn_pre = dn * (1.0f - n_gate * n_gate);
      const float dr = dn_pre * nh[j];
      // gate pre-activation derivatives
      d_pre_i[static_cast<std::size_t>(2 * h + j)] = dn_pre;
      d_pre_h[static_cast<std::size_t>(2 * h + j)] = dn_pre * r_gate;
      const float dz_pre = dz * z_gate * (1.0f - z_gate);
      d_pre_i[static_cast<std::size_t>(h + j)] = dz_pre;
      d_pre_h[static_cast<std::size_t>(h + j)] = dz_pre;
      const float dr_pre = dr * r_gate * (1.0f - r_gate);
      d_pre_i[static_cast<std::size_t>(j)] = dr_pre;
      d_pre_h[static_cast<std::size_t>(j)] = dr_pre;
    }

    float* dx = grad_in.data() + static_cast<std::size_t>(t) * input_;
    for (int r = 0; r < 3 * h; ++r) {
      const float di = d_pre_i[static_cast<std::size_t>(r)];
      const float dhh = d_pre_h[static_cast<std::size_t>(r)];
      if (di != 0.0f) {
        bias_ih_.grad[static_cast<std::size_t>(r)] += di;
        float* dwi = w_ih_.grad.data() + static_cast<std::size_t>(r) * input_;
        const float* wi =
            w_ih_.value.data() + static_cast<std::size_t>(r) * input_;
        for (int f = 0; f < input_; ++f) {
          dwi[f] += di * xt[f];
          dx[f] += di * wi[f];
        }
      }
      if (dhh != 0.0f) {
        bias_hh_.grad[static_cast<std::size_t>(r)] += dhh;
        float* dwh = w_hh_.grad.data() + static_cast<std::size_t>(r) * h;
        const float* wh = w_hh_.value.data() + static_cast<std::size_t>(r) * h;
        if (h_prev) {
          for (int j = 0; j < h; ++j) {
            dwh[j] += dhh * h_prev[j];
            dh_next[static_cast<std::size_t>(j)] += dhh * wh[j];
          }
        }
      }
    }
  }
  return grad_in;
}

}  // namespace mmhand::nn
