#pragma once

// Single-layer GRU: a sequence [T, F] -> hidden states [T, H], or B
// independent sequences [B, T, F] -> [B, T, H].
//
// Used by the temporal-model ablation (bench_ablation_temporal): the paper
// chooses an LSTM for temporal feature extraction; the GRU is the natural
// lighter-weight alternative to compare against.

#include "mmhand/nn/layer.hpp"

namespace mmhand::nn {

class Gru : public Layer {
 public:
  Gru(int input_size, int hidden_size, Rng& rng);

  /// x: [T, input] -> [T, hidden], or [B, T, input] -> [B, T, hidden].
  /// State starts at zero for every sequence.  One loop serves both ranks
  /// (per-step [B x 3H] recurrent GEMM); sequence b of a batch is bitwise
  /// identical to a forward over that sequence alone.  training caches
  /// what backward() needs and takes one [T, input] sequence only.
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override {
    return {&w_ih_, &w_hh_, &bias_ih_, &bias_hh_};
  }
  std::string name() const override { return "Gru"; }

  int hidden_size() const { return hidden_; }

 private:
  int input_, hidden_;
  // Gate order within the 3H rows: reset (r), update (z), candidate (n).
  Parameter w_ih_;    ///< [3H, F]
  Parameter w_hh_;    ///< [3H, H]
  Parameter bias_ih_; ///< [3H]
  Parameter bias_hh_; ///< [3H] (separate recurrent bias, torch-style, so
                      ///< the candidate's reset gating is well-defined)

  // Caches for BPTT.
  Tensor cached_input_;  ///< [T, F]
  Tensor gates_;         ///< [T, 3H]: r, z, n post-activation
  Tensor hh_n_;          ///< [T, H]: (W_hh h_prev + b_hh) candidate rows
  Tensor hiddens_;       ///< [T, H]
};

}  // namespace mmhand::nn
