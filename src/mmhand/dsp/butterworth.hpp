#pragma once

// Butterworth bandpass design and zero-phase filtering (§III).
//
// mmHand "filters the raw mmWave signals through an 8-order bandpass
// Butterworth filter and preserves signals related to the hand": the beat
// frequency of an FMCW return is proportional to target range, so a bandpass
// over the hand's range band (20-40 cm in the paper's setup) suppresses the
// body and furniture clutter before the range-FFT.

#include <complex>
#include <span>
#include <vector>

namespace mmhand::dsp {

/// One second-order section (biquad), normalized so a0 == 1.
struct Biquad {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

/// A cascade of biquads with an overall gain.
class SosFilter {
 public:
  SosFilter() = default;
  SosFilter(std::vector<Biquad> sections, double gain);

  /// Runs the cascade over a real signal (direct form II transposed).
  std::vector<double> filter(std::span<const double> x) const;

  /// Zero-phase filtering: forward pass, then backward pass, with
  /// reflected-edge padding to suppress startup transients.
  std::vector<double> filtfilt(std::span<const double> x) const;

  /// Zero-phase filtering of a complex signal (real filter applied to the
  /// real and imaginary parts independently).
  std::vector<std::complex<double>> filtfilt(
      std::span<const std::complex<double>> x) const;

  /// Complex frequency response at normalized frequency f in cycles/sample.
  std::complex<double> response(double f) const;

  const std::vector<Biquad>& sections() const { return sections_; }
  double gain() const { return gain_; }

 private:
  std::vector<Biquad> sections_;
  double gain_ = 1.0;
};

/// Designs a digital Butterworth bandpass via the bilinear transform.
///
/// `order` is the total filter order and must be even; the underlying
/// lowpass prototype has order/2 poles (scipy's butter(N, ..) "bandpass"
/// yields order 2N — the paper's 8th-order filter corresponds to N = 4).
/// f_lo/f_hi are the -3 dB edges in Hz, fs the sample rate in Hz.
SosFilter butterworth_bandpass(int order, double f_lo, double f_hi,
                               double fs);

}  // namespace mmhand::dsp
