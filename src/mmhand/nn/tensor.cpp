#include "mmhand/nn/tensor.hpp"

#include <atomic>
#include <utility>

namespace mmhand::nn {

namespace {

std::atomic<bool> g_pool_enabled{false};

/// Bounded per-thread free list of float buffers.  `alive` is tracked
/// through a raw thread_local pointer so releases that race thread
/// teardown (static-duration tensors destroyed after the pool) degrade
/// to plain deallocation instead of touching a dead object.
struct FreeList {
  // Enough slots for every live activation of a pose forward pass plus
  // the serving layer's per-session workspaces; overflow buffers are
  // freed normally (counted in `dropped`).
  static constexpr std::size_t kMaxParked = 512;
  std::vector<std::vector<float>> parked;
  TensorPoolStats stats;
};

thread_local FreeList* t_free_list = nullptr;

FreeList* ensure_free_list() {
  struct Guard {
    FreeList list;
    Guard() { t_free_list = &list; }
    ~Guard() { t_free_list = nullptr; }
  };
  thread_local Guard guard;
  return t_free_list;
}

/// When the pool is on and `dst` cannot hold `n` floats, moves the
/// smallest parked buffer that can into `dst`, so big buffers stay
/// available for big requests, and counts the hit or miss.
void adopt_parked(std::vector<float>* dst, std::size_t n) {
  if (!tensor_pool_enabled() || dst->capacity() >= n) return;
  FreeList* fl = ensure_free_list();
  if (fl == nullptr) return;
  std::size_t best = fl->parked.size();
  for (std::size_t i = 0; i < fl->parked.size(); ++i) {
    const std::size_t cap = fl->parked[i].capacity();
    if (cap < n) continue;
    if (best == fl->parked.size() || cap < fl->parked[best].capacity())
      best = i;
  }
  if (best == fl->parked.size()) {
    ++fl->stats.misses;
    return;
  }
  *dst = std::move(fl->parked[best]);
  fl->parked[best] = std::move(fl->parked.back());
  fl->parked.pop_back();
  ++fl->stats.hits;
}

}  // namespace

void set_tensor_pool_enabled(bool on) {
  g_pool_enabled.store(on, std::memory_order_relaxed);
}

bool tensor_pool_enabled() {
  return g_pool_enabled.load(std::memory_order_relaxed);
}

TensorPoolStats tensor_pool_stats() {
  const FreeList* fl = t_free_list;
  if (fl == nullptr) return {};
  TensorPoolStats s = fl->stats;
  s.parked = fl->parked.size();
  return s;
}

void tensor_pool_clear() {
  FreeList* fl = t_free_list;
  if (fl != nullptr) {
    fl->parked.clear();
    fl->parked.shrink_to_fit();
  }
}

namespace detail {

/// Fills `dst` with `n` zeros, reusing a parked buffer when the pool is
/// on.  Once the free list holds a buffer of every size a forward pass
/// requests, this touches no heap.
void tensor_pool_acquire(std::vector<float>* dst, std::size_t n) {
  adopt_parked(dst, n);
  dst->assign(n, 0.0f);
}

/// Copies `src` into `dst` through the pool (same reuse rules as
/// tensor_pool_acquire).
void tensor_pool_copy(std::vector<float>* dst, const std::vector<float>& src) {
  if (dst == &src) return;
  adopt_parked(dst, src.size());
  dst->assign(src.begin(), src.end());
}

/// Parks `buf` on the calling thread's free list (or frees it when the
/// pool is off, the list is full, or the thread is tearing down).
void tensor_pool_release(std::vector<float>* buf) noexcept {
  if (buf->capacity() == 0) return;
  if (!tensor_pool_enabled()) return;  // vector dtor frees as usual
  FreeList* fl = t_free_list;
  if (fl == nullptr) fl = ensure_free_list();
  if (fl == nullptr || fl->parked.size() >= FreeList::kMaxParked) {
    if (fl != nullptr) ++fl->stats.dropped;
    return;
  }
  try {
    fl->parked.push_back(std::move(*buf));
  } catch (...) {
    // push_back allocation failure: drop the buffer instead.
  }
}

}  // namespace detail

Tensor::Tensor(Shape shape) : shape_(shape) {
  detail::tensor_pool_acquire(&data_, shape_.numel());
}

Tensor::~Tensor() { detail::tensor_pool_release(&data_); }

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  detail::tensor_pool_copy(&data_, other.data_);
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    shape_ = other.shape_;
    detail::tensor_pool_copy(&data_, other.data_);
  }
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    detail::tensor_pool_release(&data_);
    shape_ = other.shape_;
    data_ = std::move(other.data_);
  }
  return *this;
}

Tensor Tensor::zeros(Shape shape) { return Tensor(shape); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(shape);
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, double stddev) {
  Tensor t(shape);
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

Tensor Tensor::from_vector(Shape shape, std::vector<float> data) {
  MMHAND_CHECK(shape.numel() == data.size(),
               "from_vector: shape/data mismatch");
  Tensor t;
  t.shape_ = shape;
  t.data_ = std::move(data);
  return t;
}

int Tensor::dim(int i) const {
  MMHAND_CHECK(i >= 0 && i < rank(), "tensor dim index " << i);
  return shape_[static_cast<std::size_t>(i)];
}

std::size_t Tensor::offset(int i, int j) const {
  MMHAND_ASSERT(rank() == 2 && i >= 0 && i < shape_[0] && j >= 0 &&
                j < shape_[1]);
  return static_cast<std::size_t>(i) * shape_[1] + j;
}

std::size_t Tensor::offset(int i, int j, int k) const {
  MMHAND_ASSERT(rank() == 3 && i >= 0 && i < shape_[0] && j >= 0 &&
                j < shape_[1] && k >= 0 && k < shape_[2]);
  return (static_cast<std::size_t>(i) * shape_[1] + j) * shape_[2] + k;
}

std::size_t Tensor::offset(int i, int j, int k, int l) const {
  MMHAND_ASSERT(rank() == 4 && i >= 0 && i < shape_[0] && j >= 0 &&
                j < shape_[1] && k >= 0 && k < shape_[2] && l >= 0 &&
                l < shape_[3]);
  return ((static_cast<std::size_t>(i) * shape_[1] + j) * shape_[2] + k) *
             shape_[3] +
         l;
}

float& Tensor::at(int i) {
  MMHAND_ASSERT(rank() == 1 && i >= 0 && i < shape_[0]);
  return data_[static_cast<std::size_t>(i)];
}
float& Tensor::at(int i, int j) { return data_[offset(i, j)]; }
float& Tensor::at(int i, int j, int k) { return data_[offset(i, j, k)]; }
float& Tensor::at(int i, int j, int k, int l) {
  return data_[offset(i, j, k, l)];
}
float Tensor::at(int i) const {
  MMHAND_ASSERT(rank() == 1 && i >= 0 && i < shape_[0]);
  return data_[static_cast<std::size_t>(i)];
}
float Tensor::at(int i, int j) const { return data_[offset(i, j)]; }
float Tensor::at(int i, int j, int k) const {
  return data_[offset(i, j, k)];
}
float Tensor::at(int i, int j, int k, int l) const {
  return data_[offset(i, j, k, l)];
}

Tensor Tensor::reshaped(Shape shape) const {
  MMHAND_CHECK(shape.numel() == numel(), "reshape element count mismatch");
  Tensor t;
  t.shape_ = shape;
  detail::tensor_pool_copy(&t.data_, data_);
  return t;
}

void Tensor::reshape(Shape shape) {
  MMHAND_CHECK(shape.numel() == numel(), "reshape element count mismatch");
  shape_ = shape;
}

void Tensor::fill(float value) {
  for (auto& v : data_) v = value;
}

void Tensor::add_(const Tensor& other) {
  MMHAND_CHECK(same_shape(other), "add_ shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::axpy_(float alpha, const Tensor& other) {
  MMHAND_CHECK(same_shape(other), "axpy_ shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] += alpha * other.data_[i];
}

void Tensor::scale_(float alpha) {
  for (auto& v : data_) v *= alpha;
}

}  // namespace mmhand::nn
