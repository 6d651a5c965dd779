#pragma once

// Dense float tensor used by the neural-network stack.
//
// Row-major, up to 4 dimensions in practice ([N, C, H, W] for feature maps,
// [T, F] for sequences).  Geometry stays in double precision elsewhere in
// the library; training runs in float like the paper's GPU implementation.
//
// Shapes live inline (`Shape`, a fixed-capacity small vector) and data
// buffers can be recycled through an opt-in thread-local pool
// (`set_tensor_pool_enabled`), so steady-state inference — where every
// forward pass requests the same multiset of buffer sizes — constructs
// and destroys tensors without touching the heap.  The pool is what lets
// the serving layer keep its per-session workspaces allocation-free and
// lets mmhand_purity_probe gate the pose forward path at zero
// allocations per call.

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "mmhand/common/error.hpp"
#include "mmhand/common/rng.hpp"

namespace mmhand::nn {

/// Fixed-capacity tensor shape: the dims live inline, so building one
/// from a braced list never allocates (unlike std::vector<int>, whose
/// call-site construction defeated the allocation-free inference goal).
class Shape {
 public:
  static constexpr int kMaxRank = 6;

  Shape() = default;
  Shape(std::initializer_list<int> dims) {
    MMHAND_CHECK(dims.size() <= static_cast<std::size_t>(kMaxRank),
                 "tensor rank " << dims.size() << " exceeds " << kMaxRank);
    for (int d : dims) dims_[rank_++] = d;
  }
  // Implicit by design: existing call sites pass std::vector<int> shapes
  // (checkpoint loaders, reshape helpers) and must keep compiling.
  Shape(const std::vector<int>& dims) {  // NOLINT(google-explicit-*)
    MMHAND_CHECK(dims.size() <= static_cast<std::size_t>(kMaxRank),
                 "tensor rank " << dims.size() << " exceeds " << kMaxRank);
    for (int d : dims) dims_[rank_++] = d;
  }

  std::size_t size() const { return static_cast<std::size_t>(rank_); }
  bool empty() const { return rank_ == 0; }
  int operator[](std::size_t i) const { return dims_[i]; }
  int& operator[](std::size_t i) { return dims_[i]; }
  const int* begin() const { return dims_; }
  const int* end() const { return dims_ + rank_; }

  /// Element count; validates that every dimension is positive.
  std::size_t numel() const {
    std::size_t n = 1;
    for (int i = 0; i < rank_; ++i) {
      MMHAND_CHECK(dims_[i] >= 1, "tensor dimension " << dims_[i]);
      n *= static_cast<std::size_t>(dims_[i]);
    }
    return n;
  }

  std::vector<int> to_vector() const { return {begin(), end()}; }
  operator std::vector<int>() const { return to_vector(); }  // NOLINT

  friend bool operator==(const Shape& a, const Shape& b) {
    if (a.rank_ != b.rank_) return false;
    for (int i = 0; i < a.rank_; ++i)
      if (a.dims_[i] != b.dims_[i]) return false;
    return true;
  }
  friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }

 private:
  int dims_[kMaxRank] = {};
  int rank_ = 0;
};

/// Opt-in recycling of tensor data buffers.  While enabled, destroyed
/// tensors park their float buffers on a bounded thread-local free list
/// and constructions reuse any parked buffer whose capacity suffices.
/// Enabling/disabling is global (relaxed atomic); the free lists are
/// per-thread, so recycling never synchronizes.  Buffers parked by a
/// thread are reused by that thread — the inference pattern, where one
/// scheduler thread builds and drops the activation tensors of each
/// forward pass, settles to zero heap traffic after the first pass.
void set_tensor_pool_enabled(bool on);
bool tensor_pool_enabled();

struct TensorPoolStats {
  std::size_t hits = 0;     ///< constructions served from the free list
  std::size_t misses = 0;   ///< constructions that hit the heap
  std::size_t parked = 0;   ///< buffers currently on this thread's list
  std::size_t dropped = 0;  ///< buffers freed because the list was full
};
/// Calling thread's pool statistics (zero when never used).
TensorPoolStats tensor_pool_stats();
/// Frees every buffer parked on the calling thread's list.
void tensor_pool_clear();

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  ~Tensor();
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(Tensor&& other) noexcept;

  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float value);
  /// Gaussian init, used by layers for weight initialization.
  static Tensor randn(Shape shape, Rng& rng, double stddev);
  static Tensor from_vector(Shape shape, std::vector<float> data);

  int rank() const { return static_cast<int>(shape_.size()); }
  int dim(int i) const;
  const Shape& shape() const { return shape_; }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  float& at(int i);
  float& at(int i, int j);
  float& at(int i, int j, int k);
  float& at(int i, int j, int k, int l);
  float at(int i) const;
  float at(int i, int j) const;
  float at(int i, int j, int k) const;
  float at(int i, int j, int k, int l) const;

  /// Same data, new shape (element count must match).
  Tensor reshaped(Shape shape) const;
  /// reshaped() in place: no copy.
  void reshape(Shape shape);

  void fill(float value);
  void zero() { fill(0.0f); }

  /// this += other (shapes must match).
  void add_(const Tensor& other);
  /// this += alpha * other.
  void axpy_(float alpha, const Tensor& other);
  /// this *= alpha.
  void scale_(float alpha);

  bool same_shape(const Tensor& other) const {
    return shape_ == other.shape_;
  }

 private:
  std::size_t offset(int i, int j) const;
  std::size_t offset(int i, int j, int k) const;
  std::size_t offset(int i, int j, int k, int l) const;

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace mmhand::nn
