#pragma once

// Portable SIMD layer for the DSP hot path and the NN GEMM kernel.
//
// One function-pointer table (`Kernels`) per instruction set; the
// active table is chosen once by runtime CPU detection and can be
// overridden with the `MMHAND_SIMD` environment variable
// (`auto|avx512|avx2|neon|scalar`) or `set_isa()` from tests.  Callers above
// this layer (dsp/, radar/, nn/gemm) never touch intrinsics — the
// `simd-confinement` lint rule keeps raw `_mm*`/`vld1q*` identifiers
// inside src/mmhand/simd/.
//
// Data layout: the radar kernels work on split-complex (SoA) double
// arrays, vectorized across the output-column or element index; the
// GEMM tile kernel (`gemm_panel`) on float panels.  The radar front end
// is three precomputed complex maps (DESIGN §3), so its whole hot path
// is two entries: the split-complex product `cgemm` and the fused
// magnitude + log compression `log1p_abs`.  The per-signal FFTs that
// build those maps are plain scalar code in dsp/fft.cpp.
//
// Numerical contract (DESIGN §9): one implementation; the scalar ISA is
// its width-1 instance and only the table differs.  Both products —
// `cgemm` and the GEMM tile kernel — give every output element one fmadd
// chain from 0 over ascending k on every ISA, so results do not depend
// on tiling or thread count; the width-1 fmadd is unfused, so outputs
// differ across ISAs by ulps.  The maps are built with the width-1
// arithmetic on every ISA, so a cube depends only on the table that
// runs the frame.  The cube goldens pin each ISA's bits; the radar
// oracle test is what justifies their values.

#include <cstddef>

namespace mmhand::simd {

enum class Isa {
  kScalar = 0,  ///< width-1 kernels; bitwise-stable across builds
  kAvx2 = 1,    ///< x86-64 AVX2+FMA, 4 double lanes
  kNeon = 2,    ///< aarch64 NEON, 2 double lanes
  /// x86-64 AVX-512F, 8 double lanes; the float GEMM entries are the
  /// AVX2 ones, so NN bits match kAvx2 and so does the cube
  kAvx512 = 3,
};

/// Every ISA, widest first: best_supported_isa() is the first one this
/// host supports, and per-ISA tests walk the whole list.
inline constexpr Isa kAllIsas[] = {Isa::kAvx512, Isa::kAvx2, Isa::kNeon,
                                   Isa::kScalar};

/// Stable lowercase name ("scalar", "avx2", "neon", "avx512") for logs,
/// `MMHAND_SIMD` and the bench JSON `simd` field.
const char* isa_name(Isa isa);

/// True when this host can execute `isa`.
bool isa_supported(Isa isa);

/// Widest ISA this host supports: the first supported entry of kAllIsas.
Isa best_supported_isa();

/// The ISA in effect: `MMHAND_SIMD` when set to a recognized and
/// supported value, otherwise the best supported ISA.  Unrecognized or
/// unsupported values fall back to auto-detection (mirroring how
/// MMHAND_THREADS ignores garbage).
Isa active_isa();

/// Overrides the active ISA at runtime (parity tests switch between
/// scalar and vector in-process).  Returns false — leaving the active
/// ISA unchanged — when the host cannot execute `isa`.
bool set_isa(Isa isa);

/// Operands of the split-complex product C[m x n] = A[m x k] · B[k x n].
/// A is addressed through two strides so a caller can feed interleaved
/// std::complex<double> data (re/im one double apart, column step 2) or
/// a transposed view without copying; B and C are split re/im, row-major.
struct ComplexProduct {
  const double* a_re;
  const double* a_im;
  std::size_t a_row;  ///< A(i, p) at a_*[i*a_row + p*a_col]
  std::size_t a_col;
  const double* b_re;
  const double* b_im;
  std::size_t ldb;  ///< B(p, j) at b_*[p*ldb + j]
  double* c_re;
  double* c_im;
  std::size_t ldc;  ///< C(i, j) at c_*[i*ldc + j]
  int m, n, k;
};

/// One entry per vectorized primitive.  `width` is the double lane count
/// (8 for AVX-512, 4 for AVX2, 2 for NEON, 1 for scalar).
struct Kernels {
  int width = 1;

  /// Split-complex product C = A·B (overwrites C).  Each output is one
  /// fmadd chain from 0 over ascending p — the real part takes
  /// +a_re*b_re then -a_im*b_im, the imaginary part a_re*b_im then
  /// a_im*b_re — so a row or column of C does not depend on m, n or
  /// how the kernel tiles them.
  void (*cgemm)(const ComplexProduct& op);

  /// out[j] = (float) log1p(|re[j] + i*im[j]|) for j < count: the radar
  /// cube's magnitude and log compression in one pass.  Within one float
  /// ulp of (float)std::log1p(std::hypot(re, im)) for finite inputs whose
  /// magnitude is below 1e150; non-finite inputs give NaN.
  void (*log1p_abs)(const double* re, const double* im, float* out,
                    std::size_t count);

  /// Float GEMM tile kernel: C[m x n] += A * B for one B panel of
  /// gemm_nr columns.  Element (p, j) of the panel is b[p*ldb + j];
  /// `a` is ceil(m/gemm_mr) packed A panels, each k x gemm_mr (element
  /// (i, p) of panel q at a[(q*k + p)*gemm_mr + i]), zero-padded past
  /// row m; C is row-major with row stride ldc and n <= gemm_nr.  Every
  /// element becomes C + (fmadd chain from 0 over ascending p), whatever
  /// its tile position.
  void (*gemm_panel)(const float* a, const float* b, std::size_t ldb,
                     float* c, std::size_t ldc, int m, int n, int k);

  /// Packs gemm_nr k-contiguous lines into a k x gemm_nr B panel for
  /// gemm_panel: dst[p*gemm_nr + j] = src[j*line + p] for j < valid,
  /// zero for the lines past `valid`.  Data movement only.
  void (*gemm_pack_lines)(const float* src, std::size_t line, int valid,
                          int k, float* dst);

  /// Gathers gemm_nr columns into a k x gemm_nr B panel for gemm_panel:
  /// dst[p*gemm_nr + j] = src[row_off[p] + col_off[j]] for j < valid, zero
  /// for the columns past `valid` (col_off is read only below `valid`;
  /// src[row_off[p]] must be readable).  Data movement only; the
  /// implicit-GEMM convolution's B pack.
  void (*gemm_pack_gather)(const float* src, const int* row_off,
                           const int* col_off, int valid, int k, float* dst);
  int gemm_mr = 1;
  int gemm_nr = 1;
};

/// Kernel table for the active ISA.
const Kernels& kernels();

/// Kernel table for a specific ISA, or nullptr when this build/host
/// cannot run it.  Lets parity tests pin both sides explicitly.
const Kernels* kernels_for(Isa isa);

}  // namespace mmhand::simd
