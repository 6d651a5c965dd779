#pragma once

// Fourier transforms for the radar pre-processing pipeline (§III).
//
// mmHand derives range, velocity and angle information "through a series of
// FFT operations".  We provide an iterative radix-2 FFT for power-of-two
// sizes, a Bluestein fallback for arbitrary sizes, and a chirp-Z transform
// used by the zoom-FFT angle refinement.
//
// Plain scalar code with separate multiplies and adds, so the results are
// the same on every ISA and host (DESIGN §9).  The radar pipeline runs
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

}  // namespace mmhand::dsp
