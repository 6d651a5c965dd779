#pragma once

// 2-D convolution and transposed convolution over [N, C, H, W] maps.
//
// Both forwards run as implicit GEMM through nn/gemm, moving each input
// element about once.  Conv2d packs its weights once per call and gathers
// each B panel straight from the input's (c, ki, kj) taps (a zero-bordered
// copy when pad > 0; a 1x1, stride-1, pad-0 conv reads the sample as B).
// ConvTranspose2d is the adjoint of a Conv2d of the same geometry, so its
// forward is that conv's backward-data pass: per sample and output
// channel, x_s^T * W lands in a [pixels x K*K] tile that col2im scatters
// while it is hot.  The backward passes run im2col/col2im + nn/gemm
// (the conv's backward-data is gemm then col2im, the deconv's im2col then
// gemm).  Every output keeps the bits of the explicit im2col + GEMM form:
// bias plus one ascending-(c, ki, kj) FMA chain for Conv2d; bias plus its
// taps in ascending (ki, kj) order, each an ascending-IC chain, for
// ConvTranspose2d.

#include "mmhand/nn/layer.hpp"

namespace mmhand::nn {

class Conv2d : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         Rng& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Conv2d"; }

  /// Output spatial size for an input of extent `in`.
  int out_extent(int in) const { return (in + 2 * pad_ - kernel_) / stride_ + 1; }

 private:
  int in_ch_, out_ch_, kernel_, stride_, pad_;
  Parameter weight_;  ///< [OC, IC, K, K]
  Parameter bias_;    ///< [OC]
  Tensor cached_input_;
};

class ConvTranspose2d : public Layer {
 public:
  ConvTranspose2d(int in_channels, int out_channels, int kernel, int stride,
                  int pad, Rng& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "ConvTranspose2d"; }

  int out_extent(int in) const {
    return (in - 1) * stride_ - 2 * pad_ + kernel_;
  }

 private:
  int in_ch_, out_ch_, kernel_, stride_, pad_;
  Parameter weight_;  ///< [IC, OC, K, K]
  Parameter bias_;    ///< [OC]
  Tensor cached_input_;
};

}  // namespace mmhand::nn
