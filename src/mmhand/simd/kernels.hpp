#pragma once

// Backend kernel-table accessors, consumed by dispatch.cpp only; the
// rest of the library goes through simd::kernels().
// Each backend lives in its own translation unit so ISA-specific
// compile flags (-mavx2 -mfma, -mavx512f) never leak into code that runs
// before dispatch has checked CPUID.

#include "mmhand/simd/simd.hpp"

namespace mmhand::simd {

/// Width-1 generic-body table; available on every host.
const Kernels& scalar_kernels();

/// AVX2 table, or nullptr when this build does not target x86-64.
/// The caller must still verify CPUID support before using it.
const Kernels* avx2_kernels();

/// AVX-512 table (8 double lanes, AVX2 float entries), or nullptr when
/// this build does not target x86-64.  The caller must still verify
/// CPUID support before using it.
const Kernels* avx512_kernels();

/// NEON table, or nullptr when this build does not target aarch64.
const Kernels* neon_kernels();

}  // namespace mmhand::simd
