#include "mmhand/nn/layer.hpp"

namespace mmhand::nn {

void zero_grads(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) p->grad.zero();
}

std::size_t parameter_count(const std::vector<Parameter*>& params) {
  std::size_t n = 0;
  for (const Parameter* p : params) n += p->value.numel();
  return n;
}

void save_parameters(const std::vector<Parameter*>& params,
                     BinaryWriter& w) {
  w.write_u64(params.size());
  for (const Parameter* p : params) {
    w.write_string(p->name);
    std::vector<int> shape = p->value.shape();
    w.write_i32_vector(shape);
    w.write_f32_vector(p->value.vec());
  }
}

void load_parameters(const std::vector<Parameter*>& params,
                     BinaryReader& r) {
  const auto n = r.read_u64();
  MMHAND_CHECK(n == params.size(),
               "checkpoint has " << n << " parameters, model expects "
                                 << params.size());
  for (Parameter* p : params) {
    const std::string name = r.read_string();
    const auto shape = r.read_i32_vector();
    auto values = r.read_f32_vector();
    MMHAND_CHECK(Shape(shape) == p->value.shape(),
                 "parameter '" << name << "' shape mismatch");
    p->value = Tensor::from_vector(shape, std::move(values));
  }
}

}  // namespace mmhand::nn
