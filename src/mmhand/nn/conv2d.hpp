#pragma once

// 2-D convolution and transposed convolution over [N, C, H, W] maps.
//
// Both run im2col/col2im + nn/gemm.  ConvTranspose2d is the adjoint of a
// Conv2d of the same geometry, so its forward is that conv's backward-data
// pass (gemm, then col2im) and its backward-data that conv's forward
// (im2col, then gemm).

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
