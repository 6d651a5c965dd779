#include "mmhand/nn/activations.hpp"

#include <cmath>

namespace mmhand::nn {

Tensor ReLU::forward(const Tensor& x, bool training) {
  Tensor y = x;
  float* d = y.data();
  const std::size_t count = y.numel();
  // A select, not std::max: -0.0f and NaN become +0.0f.  Branch-free, so
  // the compiler vectorizes it.
  for (std::size_t i = 0; i < count; ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
  if (training) {
    mask_ = Tensor(x.shape());
    float* m = mask_.data();
    for (std::size_t i = 0; i < count; ++i) m[i] = d[i] > 0.0f ? 1.0f : 0.0f;
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  MMHAND_CHECK(grad_out.same_shape(mask_), "ReLU backward shape");
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.numel(); ++i) g[i] *= mask_[i];
  return g;
}

float sigmoid_value(float x) { return 1.0f / (1.0f + std::exp(-x)); }
float tanh_value(float x) { return std::tanh(x); }

Tensor Sigmoid::forward(const Tensor& x, bool training) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = sigmoid_value(y[i]);
  if (training) output_ = y;
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  MMHAND_CHECK(grad_out.same_shape(output_), "Sigmoid backward shape");
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.numel(); ++i)
    g[i] *= output_[i] * (1.0f - output_[i]);
  return g;
}

Tensor Tanh::forward(const Tensor& x, bool training) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = tanh_value(y[i]);
  if (training) output_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  MMHAND_CHECK(grad_out.same_shape(output_), "Tanh backward shape");
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.numel(); ++i)
    g[i] *= 1.0f - output_[i] * output_[i];
  return g;
}

}  // namespace mmhand::nn
