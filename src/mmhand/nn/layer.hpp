#pragma once

// Layer abstraction: explicit forward/backward with cached activations.
//
// The stack is a static-graph, define-by-layer design (no tape autograd):
// every layer stores what its backward pass needs during forward, and
// backward consumes the upstream gradient and returns the gradient with
// respect to the layer's input.  Composite modules (attention blocks,
// mmSpaceNet) chain their children's forward/backward by hand; numerical
// gradient checks in tests/test_nn.cpp pin the derivations down.

#include <memory>
#include <string>
#include <vector>

#include "mmhand/common/serialize.hpp"
#include "mmhand/nn/tensor.hpp"

namespace mmhand::nn {

/// A trainable tensor and its accumulated gradient.
struct Parameter {
  Tensor value;
  Tensor grad;
  std::string name;

  explicit Parameter(Tensor v, std::string n = {})
      : value(std::move(v)), grad(Tensor::zeros(value.shape())),
        name(std::move(n)) {}
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the output and caches whatever backward() will need.  The
  /// batch comes from the input's shape: recurrent layers take one
  /// sequence [T, F] or B independent sequences [B, T, F].
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// Consumes dL/d(output), accumulates parameter gradients, and returns
  /// dL/d(input).  Must be called after a matching forward().
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  virtual std::string name() const = 0;
};

/// Zeroes the gradients of a parameter set.
void zero_grads(const std::vector<Parameter*>& params);

/// Total parameter count.
std::size_t parameter_count(const std::vector<Parameter*>& params);

/// Serializes parameter values (shape-checked on load).
void save_parameters(const std::vector<Parameter*>& params, BinaryWriter& w);
void load_parameters(const std::vector<Parameter*>& params, BinaryReader& r);

}  // namespace mmhand::nn
