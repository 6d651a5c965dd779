// Compiled with per-file -mavx2 -mfma on x86-64 (see src/CMakeLists.txt);
// dispatch.cpp only hands out this table after CPUID confirms support,
// so the rest of the binary stays runnable on baseline hardware.

#include "mmhand/simd/kernels.hpp"
#include "mmhand/simd/vec_avx2.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#define MMHAND_SIMD_VEC VAvx2
#define MMHAND_SIMD_FVEC VAvx2F
#include "mmhand/simd/kernels_body.inl"
#undef MMHAND_SIMD_FVEC
#undef MMHAND_SIMD_VEC

namespace mmhand::simd {

const Kernels* avx2_kernels() { return &kTable; }

}  // namespace mmhand::simd

#else

namespace mmhand::simd {

const Kernels* avx2_kernels() { return nullptr; }

}  // namespace mmhand::simd

#endif
