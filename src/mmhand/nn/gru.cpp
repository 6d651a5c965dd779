#include "mmhand/nn/gru.hpp"

#include <cmath>

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
  MMHAND_CHECK(x.rank() == 2 && x.dim(1) == input_,
               "Gru expects [T, " << input_ << "]");
  const int t_len = x.dim(0);
  const int h = hidden_;
  Tensor gates({t_len, 3 * h});
  Tensor hh_n({t_len, h});
  Tensor hiddens({t_len, h});

  // Input pre-activations for every timestep in one GEMM; the recurrent
  // half (the candidate uses r . (W_hh h + b_hh), so the two stay separate)
  // remains a per-step single-row GEMM.
  Tensor pre_all({t_len, 3 * h});
  for (int t = 0; t < t_len; ++t) {
    float* pt = pre_all.data() + static_cast<std::size_t>(t) * 3 * h;
    for (int r = 0; r < 3 * h; ++r)
      pt[r] = bias_ih_.value[static_cast<std::size_t>(r)];
  }
  gemm_a_bt_acc(x.data(), w_ih_.value.data(), pre_all.data(), t_len, input_,
                3 * h);

  std::vector<float> h_prev(static_cast<std::size_t>(h), 0.0f);
  std::vector<float> hh(static_cast<std::size_t>(3 * h));
  for (int t = 0; t < t_len; ++t) {
    const float* pre =
        pre_all.data() + static_cast<std::size_t>(t) * 3 * h;
    for (int r = 0; r < 3 * h; ++r)
      hh[static_cast<std::size_t>(r)] =
          bias_hh_.value[static_cast<std::size_t>(r)];
    gemm_a_bt_acc(h_prev.data(), w_hh_.value.data(), hh.data(), 1, h, 3 * h);
    float* gt = gates.data() + static_cast<std::size_t>(t) * 3 * h;
    float* nh = hh_n.data() + static_cast<std::size_t>(t) * h;
    float* ht = hiddens.data() + static_cast<std::size_t>(t) * h;
    for (int j = 0; j < h; ++j) {
      const float r_gate = sigmoid_value(pre[static_cast<std::size_t>(j)] +
                                         hh[static_cast<std::size_t>(j)]);
      const float z_gate =
          sigmoid_value(pre[static_cast<std::size_t>(h + j)] +
                        hh[static_cast<std::size_t>(h + j)]);
      const float hh_cand = hh[static_cast<std::size_t>(2 * h + j)];
      const float n_gate = tanh_value(
          pre[static_cast<std::size_t>(2 * h + j)] + r_gate * hh_cand);
      gt[j] = r_gate;
      gt[h + j] = z_gate;
      gt[2 * h + j] = n_gate;
      nh[j] = hh_cand;
      ht[j] = (1.0f - z_gate) * n_gate +
              z_gate * h_prev[static_cast<std::size_t>(j)];
    }
    std::copy(ht, ht + h, h_prev.begin());
  }

  if (training) {
    cached_input_ = x;
    gates_ = std::move(gates);
    hh_n_ = std::move(hh_n);
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
