// NEON lane kernels; real contents only on aarch64 builds.

#include "mmhand/simd/kernels.hpp"
#include "mmhand/simd/vec_neon.hpp"

#if defined(__aarch64__)

#define MMHAND_SIMD_VEC VNeon
#define MMHAND_SIMD_FVEC VNeonF
#include "mmhand/simd/kernels_body.inl"
#undef MMHAND_SIMD_FVEC
#undef MMHAND_SIMD_VEC

namespace mmhand::simd {

const Kernels* neon_kernels() { return &kTable; }

}  // namespace mmhand::simd

#else

namespace mmhand::simd {

const Kernels* neon_kernels() { return nullptr; }

}  // namespace mmhand::simd

#endif
