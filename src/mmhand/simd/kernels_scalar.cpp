#include "mmhand/simd/kernels.hpp"
#include "mmhand/simd/vec_scalar.hpp"

#define MMHAND_SIMD_VEC VScalar
#define MMHAND_SIMD_FVEC VScalarF
#include "mmhand/simd/kernels_body.inl"
#undef MMHAND_SIMD_FVEC
#undef MMHAND_SIMD_VEC

namespace mmhand::simd {

const Kernels& scalar_kernels() { return kTable; }

}  // namespace mmhand::simd
