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
// table.  The scalar ISA is the width-1 instance of the same kernels;
// wider ISAs agree with it to 1e-9 relative.  The radar pipeline runs
// these per-signal transforms once, on unit impulses, to build its
// precomputed maps (DESIGN §3); no frame goes through them.

#include <complex>
#include <span>
#include <vector>

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
/// finer grid than the plain FFT provides (Bluestein's algorithm).
std::vector<Complex> czt(std::span<const Complex> x, std::size_t m, Complex w,
                         Complex a);

/// Zoom-FFT: spectrum of x evaluated on `bins` evenly spaced normalized
/// frequencies in [f_lo, f_hi) (cycles/sample, in [-0.5, 0.5)).  A zoom-FFT
/// with refinement factor 2 evaluates the same band at twice the density of
/// the plain FFT (§III: angle-FFT refinement).
std::vector<Complex> zoom_fft(std::span<const Complex> x, double f_lo,
                              double f_hi, std::size_t bins);

/// Single-signal split-complex power-of-two FFT on the active SIMD
/// kernels (vectorized across the butterfly index).
void fft_soa_pow2(double* re, double* im, std::size_t n, bool inverse);

}  // namespace mmhand::dsp
