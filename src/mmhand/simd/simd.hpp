#pragma once

// Portable SIMD layer for the DSP hot path and the NN GEMM kernel.
//
// One function-pointer table (`Kernels`) per instruction set; the
// active table is chosen once by runtime CPU detection and can be
// overridden with the `MMHAND_SIMD` environment variable
// (`auto|avx2|neon|scalar`) or `set_isa()` from tests.  Callers above
// this layer (dsp/, radar/, nn/gemm) never touch intrinsics — the
// `simd-confinement` lint rule keeps raw `_mm*`/`vld1q*` identifiers
// inside src/mmhand/simd/.
//
// Data layout: the DSP kernels work on split-complex (SoA) double
// arrays; the GEMM tile kernel (`gemm_panel`) on float panels.
// Lane-batched ("lanes") kernels interleave `width` independent
// signals element-major: element k of lane l lives at [k*width + l],
// so one vector load fetches element k of every lane.  Single-signal
// ("soa") kernels vectorize across the element index instead.
//
// Numerical contract (DESIGN §9): one implementation; the scalar ISA is
// its width-1 instance.  dsp/ and radar/ run the same lane-batched code
// on every ISA and only the table differs.  The width-1 table's float
// radar cube is bitwise the pre-SIMD one (the cube golden pins it);
// other doubles may move by ulps.  Vector ISAs may reassociate and fuse
// (FMA), and agree with it to 1e-9 relative on the parity suite.  The
// GEMM tile kernel gives every output element one fmadd chain from 0
// over ascending k on every ISA; the width-1 fmadd is unfused, so NN
// outputs differ across ISAs by ulps.

#include <cstddef>

namespace mmhand::simd {

enum class Isa {
  kScalar = 0,  ///< width-1 kernels; bitwise-stable across builds
  kAvx2 = 1,    ///< x86-64 AVX2+FMA, 4 double lanes
  kNeon = 2,    ///< aarch64 NEON, 2 double lanes
};

/// Stable lowercase name ("scalar", "avx2", "neon") for logs and the
/// bench JSON `simd` field.
const char* isa_name(Isa isa);

/// True when this host can execute `isa`.
bool isa_supported(Isa isa);

/// Highest-throughput ISA this host supports.
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

/// One entry per vectorized primitive.  `width` is the lane count of
/// the batched layouts (4 for AVX2, 2 for NEON, 1 for scalar).
struct Kernels {
  int width = 1;

  /// Radix-2 FFT of `width` interleaved signals of power-of-two size
  /// n.  re/im hold n*width doubles in lane-batched layout.  `tw` is
  /// the interleaved forward twiddle table (n/2 complex values,
  /// re,im pairs).  When `inverse`, conjugates the twiddles and
  /// applies the 1/n normalization.
  void (*fft_lanes)(double* re, double* im, std::size_t n, const double* tw,
                    bool inverse);

  /// Radix-2 FFT of one signal of power-of-two size n in SoA form,
  /// vectorized across the butterfly index.  stw_re/stw_im are the
  /// per-stage twiddle tables (n-1 doubles each: stage len=2 first,
  /// len/2 entries per stage, contiguous).
  void (*fft_soa)(double* re, double* im, std::size_t n, const double* stw_re,
                  const double* stw_im, bool inverse);

  /// x[k*width+l] *= b[k] for k < n: complex multiply with a
  /// per-element broadcast factor (chirp/spectrum tables).
  void (*cmul_bcast)(double* re, double* im, const double* b_re,
                     const double* b_im, std::size_t n);

  /// x[j] *= b[j] for j < count: flat elementwise complex multiply.
  void (*cmul)(double* re, double* im, const double* b_re, const double* b_im,
               std::size_t count);

  /// x[k*width+l] *= s[k] for k < n: real broadcast (window apply).
  void (*scale_bcast)(double* re, double* im, const double* s, std::size_t n);

  /// Direct-form-II-transposed biquad cascade over `width` interleaved
  /// real channels: x[t*width+l], t < len.  `coeffs` holds nsec
  /// sections as [b0,b1,b2,a1,a2]; `gain` is applied after the last
  /// section.  dir=+1 filters forward in t, dir=-1 backward (the
  /// filtfilt reverse pass without materializing the reversal).
  void (*sos_lanes)(double* x, std::size_t len, const double* coeffs,
                    std::size_t nsec, double gain, int dir);

  /// out[j] = sqrt(re[j]^2 + im[j]^2) for j < count.
  void (*vmag)(const double* re, const double* im, double* out,
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
  int gemm_mr = 1;
  int gemm_nr = 1;
};

/// Kernel table for the active ISA.
const Kernels& kernels();

/// Kernel table for a specific ISA, or nullptr when this build/host
/// cannot run it.  Lets parity tests pin both sides explicitly.
const Kernels* kernels_for(Isa isa);

}  // namespace mmhand::simd
