#pragma once

// Single-layer LSTM: a sequence [T, F] -> hidden states [T, H], or B
// independent sequences [B, T, F] -> [B, T, H].
//
// mmHand's temporal model (§IV-A): the per-segment feature vectors produced
// by mmSpaceNet form a sequence; the LSTM extracts temporal features that
// describe hand motion across segments.  Full backpropagation through time.

#include "mmhand/nn/layer.hpp"

namespace mmhand::nn {

class Lstm : public Layer {
 public:
  Lstm(int input_size, int hidden_size, Rng& rng);

  /// x: [T, input] -> [T, hidden], or [B, T, input] -> [B, T, hidden].
  /// State starts at zero for every sequence.  One loop serves both
  /// ranks: one input-projection GEMM over all B*T rows, then a per-step
  /// [B x 4H] recurrent GEMM.  gemm rounds each row independently of the
  /// row count, so sequence b of a batch is bitwise identical to a
  /// forward over that sequence alone (the serving layer's drained-parity
  /// guarantee depends on it).  training caches what backward() needs and
  /// takes one [T, input] sequence only.
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override {
    return {&w_ih_, &w_hh_, &bias_};
  }
  std::string name() const override { return "Lstm"; }

  int hidden_size() const { return hidden_; }

 private:
  int input_, hidden_;
  // Gate order within the 4H rows: input, forget, cell(g), output.
  Parameter w_ih_;  ///< [4H, F]
  Parameter w_hh_;  ///< [4H, H]
  Parameter bias_;  ///< [4H]

  // Caches for BPTT.
  Tensor cached_input_;  ///< [T, F]
  Tensor gates_;         ///< [T, 4H] post-activation gate values
  Tensor cells_;         ///< [T, H] cell states
  Tensor hiddens_;       ///< [T, H] hidden states
};

}  // namespace mmhand::nn
