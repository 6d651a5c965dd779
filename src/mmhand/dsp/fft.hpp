#pragma once

// Fourier transforms for the radar pre-processing pipeline (§III).
//
// mmHand derives range, velocity and angle information "through a series of
// FFT operations".  We provide an iterative radix-2 FFT for power-of-two
// sizes, a Bluestein fallback for arbitrary sizes, and a chirp-Z transform
// used by the zoom-FFT angle refinement.
//
// One implementation on every ISA (DESIGN §9): the power-of-two
// transforms run on split-complex (SoA) layouts through the simd/ kernel
// table, and the CZT/zoom path amortizes its chirp factors and kernel
// spectrum in a `CztPlan`.  The scalar ISA is the width-1 instance of the
// same kernels; wider ISAs agree with it to 1e-9 relative.

#include <complex>
#include <span>
#include <vector>

#include "mmhand/common/aligned.hpp"

namespace mmhand::dsp {

using Complex = std::complex<double>;

/// True when n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// FFT of arbitrary size (radix-2 when possible, Bluestein otherwise).
std::vector<Complex> fft(std::span<const Complex> x);

/// Inverse FFT of arbitrary size (includes 1/N normalization).
std::vector<Complex> ifft(std::span<const Complex> x);

/// FFT of a real signal; returns the full complex spectrum of length n.
/// Power-of-two sizes (n >= 4) use the real-input specialization
/// (half-size complex FFT plus untangling).
std::vector<Complex> fft_real(std::span<const double> x);

/// Swaps the two halves of a spectrum so that bin 0 (DC) is centered.
/// For odd n the extra element stays with the upper half, matching numpy.
std::vector<Complex> fft_shift(std::span<const Complex> x);

/// Chirp-Z transform: evaluates the z-transform of x at the m points
/// a * w^-k, k = 0..m-1.  Used to zoom into a narrow frequency band with a
/// finer grid than the plain FFT provides.  Runs a one-off `CztPlan`.
std::vector<Complex> czt(std::span<const Complex> x, std::size_t m, Complex w,
                         Complex a);

/// Zoom-FFT: spectrum of x evaluated on `bins` evenly spaced normalized
/// frequencies in [f_lo, f_hi) (cycles/sample, in [-0.5, 0.5)).  A zoom-FFT
/// with refinement factor 2 evaluates the same band at twice the density of
/// the plain FFT (§III: angle-FFT refinement).
std::vector<Complex> zoom_fft(std::span<const Complex> x, double f_lo,
                              double f_hi, std::size_t bins);

/// Lane-batched power-of-two FFT on the active SIMD kernels.  re/im hold
/// n * simd::kernels().width doubles: element k of lane l at [k*W + l].
void fft_lanes_pow2(double* re, double* im, std::size_t n, bool inverse);

/// Single-signal split-complex power-of-two FFT on the active SIMD
/// kernels (vectorized across the butterfly index).
void fft_soa_pow2(double* re, double* im, std::size_t n, bool inverse);

/// Precomputed Bluestein evaluation of one CZT geometry (n input points,
/// m output points, fixed w and a).  Construction is scalar and
/// ISA-independent: the chirp factors and the FFT of the convolution
/// kernel are computed once, replacing three polar/pow-heavy transforms
/// per call with two power-of-two FFTs.
class CztPlan {
 public:
  CztPlan(std::size_t n, std::size_t m, Complex w, Complex a);

  std::size_t input_size() const { return n_; }
  std::size_t output_size() const { return m_; }

  /// Evaluates one signal (x.size() == input_size()) on the active
  /// SIMD kernels; used by `czt` and `zoom_fft`.
  std::vector<Complex> run(std::span<const Complex> x) const;

  /// Evaluates simd::kernels().width signals at once.  re/im hold
  /// input_size()*W doubles lane-batched; out_re/out_im receive
  /// output_size()*W doubles in the same layout.
  void run_lanes(const double* re, const double* im, double* out_re,
                 double* out_im) const;

 private:
  std::size_t n_, m_, conv_;
  aligned_vector<double> fa_re_, fa_im_;      ///< a^-i * w^{i^2/2}, i < n
  aligned_vector<double> fb_re_, fb_im_;      ///< FFT of the chirp kernel
  aligned_vector<double> out_re_, out_im_;    ///< w^{k^2/2}, k < m
};

/// Cached plan for `zoom_fft(x, f_lo, f_hi, bins)` with x.size() == n.
/// Plans are built once per geometry and never evicted, so the returned
/// reference stays valid for the process lifetime (same contract as the
/// twiddle cache).
const CztPlan& zoom_plan(std::size_t n, double f_lo, double f_hi,
                         std::size_t bins);

}  // namespace mmhand::dsp
