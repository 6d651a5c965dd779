// Tests for mmhand/dsp: FFT family, windows, Butterworth.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "mmhand/common/error.hpp"
#include "mmhand/common/rng.hpp"
#include "mmhand/dsp/butterworth.hpp"
#include "mmhand/dsp/fft.hpp"
#include "mmhand/dsp/window.hpp"

namespace mmhand::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

/// Brute-force DFT used as the reference implementation.
std::vector<Complex> dft_reference(std::span<const Complex> x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{};
    for (std::size_t i = 0; i < n; ++i)
      acc += x[i] * std::polar(1.0, -2.0 * kPi * static_cast<double>(k * i) /
                                        static_cast<double>(n));
    out[k] = acc;
  }
  return out;
}

std::vector<Complex> random_signal(std::size_t n, Rng& rng) {
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex{rng.normal(), rng.normal()};
  return x;
}

std::vector<double> magnitude(const std::vector<Complex>& x) {
  std::vector<double> m(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) m[i] = std::abs(x[i]);
  return m;
}

std::size_t argmax(const std::vector<double>& v) {
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) -
                                  v.begin());
}

TEST(Fft, IsPowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(63));
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesReferenceDft) {
  Rng rng(42 + GetParam());
  const auto x = random_signal(GetParam(), rng);
  const auto fast = fft(x);
  const auto ref = dft_reference(x);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(std::abs(fast[i] - ref[i]), 0.0, 1e-8) << "bin " << i;
}

TEST_P(FftSizes, InverseRoundTrip) {
  Rng rng(7 + GetParam());
  const auto x = random_signal(GetParam(), rng);
  const auto back = ifft(fft(x));
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-9) << "sample " << i;
}

TEST_P(FftSizes, ParsevalHolds) {
  Rng rng(99 + GetParam());
  const auto x = random_signal(GetParam(), rng);
  const auto spec = fft(x);
  double e_time = 0.0, e_freq = 0.0;
  for (const auto& v : x) e_time += std::norm(v);
  for (const auto& v : spec) e_freq += std::norm(v);
  EXPECT_NEAR(e_freq / static_cast<double>(x.size()), e_time,
              1e-8 * e_time + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwoAndOddSizes, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 128, 3, 5, 7,
                                           12, 17, 60, 100));

TEST(Fft, PureToneLandsInCorrectBin) {
  const std::size_t n = 64;
  const std::size_t tone = 5;
  std::vector<Complex> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::polar(1.0, 2.0 * kPi * static_cast<double>(tone * i) /
                               static_cast<double>(n));
  const auto spec = fft(x);
  const auto mags = magnitude(spec);
  EXPECT_EQ(argmax(mags), tone);
  EXPECT_NEAR(mags[tone], static_cast<double>(n), 1e-9);
}

TEST(Fft, LinearityHolds) {
  Rng rng(13);
  const auto a = random_signal(32, rng);
  const auto b = random_signal(32, rng);
  std::vector<Complex> sum(32);
  for (std::size_t i = 0; i < 32; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const auto fs = fft(sum);
  const auto fa = fft(a);
  const auto fb = fft(b);
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_NEAR(std::abs(fs[i] - (2.0 * fa[i] + 3.0 * fb[i])), 0.0, 1e-9);
}

TEST(Fft, ShiftCentersDc) {
  std::vector<Complex> x(8, Complex{1.0, 0.0});
  const auto spec = fft(x);           // impulse at bin 0
  const auto shifted = fft_shift(spec);
  const auto mags = magnitude(shifted);
  EXPECT_EQ(argmax(mags), 4u);  // center for even n
}

TEST(Fft, ShiftOddLength) {
  std::vector<Complex> x{{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}};
  const auto s = fft_shift(x);
  // Halves swap: [4,5,1,2,3].
  EXPECT_DOUBLE_EQ(s[0].real(), 4.0);
  EXPECT_DOUBLE_EQ(s[2].real(), 1.0);
  EXPECT_DOUBLE_EQ(s[4].real(), 3.0);
}

TEST(Fft, RealSignalSpectrumIsConjugateSymmetric) {
  Rng rng(5);
  std::vector<Complex> x(32);
  for (auto& v : x) v = Complex{rng.normal(), 0.0};
  const auto spec = fft(x);
  for (std::size_t k = 1; k < 32; ++k)
    EXPECT_NEAR(std::abs(spec[k] - std::conj(spec[32 - k])), 0.0, 1e-9);
}

TEST(ZoomFft, MatchesDenseDftOnBand) {
  // A zoomed band must equal direct evaluation of the DTFT on that band.
  Rng rng(21);
  const auto x = random_signal(16, rng);
  const double f_lo = -0.2, f_hi = 0.2;
  const std::size_t bins = 10;
  const auto zoom = zoom_fft(x, f_lo, f_hi, bins);
  for (std::size_t k = 0; k < bins; ++k) {
    const double f = f_lo + (f_hi - f_lo) * static_cast<double>(k) /
                                static_cast<double>(bins);
    Complex ref{};
    for (std::size_t i = 0; i < x.size(); ++i)
      ref += x[i] * std::polar(1.0, -2.0 * kPi * f * static_cast<double>(i));
    EXPECT_NEAR(std::abs(zoom[k] - ref), 0.0, 1e-8) << "bin " << k;
  }
}

TEST(ZoomFft, RefinementResolvesCloseTones) {
  // Two tones 0.7 bins apart are unresolvable by the plain 8-point FFT but
  // separate under a finer zoom grid — the reason §III applies zoom-FFT to
  // the angle spectra.
  const std::size_t n = 8;
  std::vector<Complex> x(n);
  const double f1 = 0.10, f2 = 0.19;
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::polar(1.0, 2.0 * kPi * f1 * static_cast<double>(i)) +
           std::polar(1.0, 2.0 * kPi * f2 * static_cast<double>(i));
  const auto fine = zoom_fft(x, 0.05, 0.25, 32);
  const auto mags = magnitude(fine);
  // Local maxima at least half as high as the strongest bin.
  const double half_peak = 0.5 * mags[argmax(mags)];
  int peaks = 0;
  for (std::size_t i = 0; i < mags.size(); ++i) {
    const bool left = i == 0 || mags[i] > mags[i - 1];
    const bool right = i + 1 == mags.size() || mags[i] > mags[i + 1];
    if (left && right && mags[i] >= half_peak) ++peaks;
  }
  EXPECT_GE(peaks, 2);
}

TEST(ZoomFft, FullBandEqualsFft) {
  Rng rng(31);
  const auto x = random_signal(8, rng);
  const auto spec = fft(x);
  const auto zoom = zoom_fft(x, 0.0, 1.0, 8);  // same grid as the DFT
  for (std::size_t k = 0; k < 8; ++k)
    EXPECT_NEAR(std::abs(zoom[k] - spec[k]), 0.0, 1e-8);
}

TEST(Czt, DegenerateSingleBin) {
  const std::vector<Complex> x{{1, 0}, {1, 0}};
  const auto out = czt(x, 1, Complex{1, 0}, Complex{1, 0});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(std::abs(out[0] - Complex{2.0, 0.0}), 0.0, 1e-10);
}

TEST(Czt, MatchesDirectZTransformOffTheUnitCircle) {
  // X_k = sum_i x_i z_k^-i at z_k = a * w^-k, summed directly.  Spirals
  // with |w| != 1 and |a| != 1 check the chirp factors' magnitudes, not
  // just their phases.
  const struct {
    std::size_t n, m;
    Complex w, a;
  } cases[] = {
      {7, 5, std::polar(1.02, -0.3), std::polar(0.95, 0.4)},
      {16, 16, std::polar(0.98, -2.0 * kPi / 16.0), std::polar(1.05, 0.1)},
      {5, 11, std::polar(1.0, -0.17), std::polar(1.0, 0.5)},
      {12, 3, std::polar(0.97, 0.25), std::polar(1.1, -1.2)},
  };
  Rng rng(37);
  for (const auto& c : cases) {
    const auto x = random_signal(c.n, rng);
    const auto got = czt(x, c.m, c.w, c.a);
    ASSERT_EQ(got.size(), c.m);
    double scale = 0.0, err = 0.0;
    for (std::size_t k = 0; k < c.m; ++k) {
      const Complex z = c.a * std::pow(c.w, -static_cast<double>(k));
      Complex ref{};
      for (std::size_t i = 0; i < c.n; ++i)
        ref += x[i] * std::pow(z, -static_cast<double>(i));
      scale = std::max(scale, std::abs(ref));
      err = std::max(err, std::abs(ref - got[k]));
    }
    EXPECT_LE(err, 1e-9 * scale) << "n=" << c.n << " m=" << c.m;
  }
}

TEST(Window, RectIsAllOnes) {
  const auto w = make_window(WindowType::kRect, 16);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
  EXPECT_DOUBLE_EQ(coherent_gain(w), 1.0);
}

class WindowTypes : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowTypes, SymmetricAndBounded) {
  const auto w = make_window(GetParam(), 33);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -1e-12);
    EXPECT_LE(w[i], 1.0 + 1e-12);
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
  }
}

TEST_P(WindowTypes, PeaksAtCenter) {
  const auto w = make_window(GetParam(), 33);
  const std::size_t mid = 16;
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_LE(w[i], w[mid] + 1e-12);
}

TEST_P(WindowTypes, ReducesLeakage) {
  // An off-grid tone leaks less energy into far bins when windowed.
  const std::size_t n = 64;
  std::vector<Complex> raw(n), win(n);
  const auto w = make_window(GetParam(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const Complex tone =
        std::polar(1.0, 2.0 * kPi * 10.37 * static_cast<double>(i) /
                            static_cast<double>(n));
    raw[i] = tone;
    win[i] = tone * w[i];
  }
  const auto raw_mag = magnitude(fft(raw));
  const auto win_mag = magnitude(fft(win));
  // Compare leakage 12 bins away from the tone, normalized by the peak.
  const double raw_leak = raw_mag[30] / raw_mag[10];
  const double win_leak = win_mag[30] / win_mag[10];
  if (GetParam() == WindowType::kRect) {
    SUCCEED();
  } else {
    EXPECT_LT(win_leak, raw_leak);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWindows, WindowTypes,
                         ::testing::Values(WindowType::kRect,
                                           WindowType::kHann,
                                           WindowType::kHamming,
                                           WindowType::kBlackman));

TEST(Window, SingleElement) {
  EXPECT_EQ(make_window(WindowType::kHann, 1).size(), 1u);
  EXPECT_DOUBLE_EQ(make_window(WindowType::kHann, 1)[0], 1.0);
}

TEST(Butterworth, PassbandIsFlatStopbandRejects) {
  // The paper's configuration: 8th-order bandpass.
  const double fs = 800e3;
  const auto f = butterworth_bandpass(8, 30e3, 200e3, fs);
  // Passband center ~ unity.
  EXPECT_NEAR(std::abs(f.response(80e3 / fs)), 1.0, 0.05);
  EXPECT_GT(std::abs(f.response(50e3 / fs)), 0.7);
  EXPECT_GT(std::abs(f.response(150e3 / fs)), 0.7);
  // Deep stopband.
  EXPECT_LT(std::abs(f.response(1e3 / fs)), 0.02);
  EXPECT_LT(std::abs(f.response(350e3 / fs)), 0.05);
}

TEST(Butterworth, EdgeAttenuationNear3Db) {
  const double fs = 1000.0;
  const auto f = butterworth_bandpass(8, 100.0, 200.0, fs);
  EXPECT_NEAR(std::abs(f.response(100.0 / fs)), std::sqrt(0.5), 0.08);
  EXPECT_NEAR(std::abs(f.response(200.0 / fs)), std::sqrt(0.5), 0.08);
}

TEST(Butterworth, MonotoneStopbandDecay) {
  const double fs = 1000.0;
  const auto f = butterworth_bandpass(4, 100.0, 200.0, fs);
  double prev = std::abs(f.response(90.0 / fs));
  for (double freq = 80.0; freq >= 20.0; freq -= 10.0) {
    const double cur = std::abs(f.response(freq / fs));
    EXPECT_LT(cur, prev + 1e-9);
    prev = cur;
  }
}

TEST(Butterworth, FilterSuppressesOutOfBandTone) {
  const double fs = 800e3;
  const auto f = butterworth_bandpass(8, 30e3, 200e3, fs);
  std::vector<double> in_band(256), out_band(256);
  for (std::size_t i = 0; i < 256; ++i) {
    const double t = static_cast<double>(i) / fs;
    in_band[i] = std::sin(2.0 * kPi * 100e3 * t);
    out_band[i] = std::sin(2.0 * kPi * 5e3 * t);
  }
  auto rms = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x * x;
    return std::sqrt(s / static_cast<double>(v.size()));
  };
  EXPECT_GT(rms(f.filtfilt(in_band)), 0.5);
  EXPECT_LT(rms(f.filtfilt(out_band)), 0.05);
}

TEST(Butterworth, FiltFiltIsZeroPhase) {
  // A zero-phase filter must not shift a passband tone.
  const double fs = 1000.0;
  const auto f = butterworth_bandpass(4, 50.0, 150.0, fs);
  std::vector<double> x(512);
  for (std::size_t i = 0; i < 512; ++i)
    x[i] = std::sin(2.0 * kPi * 100.0 * static_cast<double>(i) / fs);
  const auto y = f.filtfilt(x);
  // Compare against the input away from the edges; amplitude ~1, phase ~0.
  double dot = 0.0, xx = 0.0, yy = 0.0;
  for (std::size_t i = 100; i < 412; ++i) {
    dot += x[i] * y[i];
    xx += x[i] * x[i];
    yy += y[i] * y[i];
  }
  const double corr = dot / std::sqrt(xx * yy);
  EXPECT_GT(corr, 0.999);
}

TEST(Butterworth, ComplexFiltFiltMatchesComponents) {
  const double fs = 1000.0;
  const auto f = butterworth_bandpass(4, 50.0, 150.0, fs);
  Rng rng(2);
  std::vector<std::complex<double>> x(128);
  std::vector<double> re(128), im(128);
  for (std::size_t i = 0; i < 128; ++i) {
    re[i] = rng.normal();
    im[i] = rng.normal();
    x[i] = {re[i], im[i]};
  }
  const auto y = f.filtfilt(std::span<const std::complex<double>>(x));
  const auto yr = f.filtfilt(std::span<const double>(re));
  const auto yi = f.filtfilt(std::span<const double>(im));
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_DOUBLE_EQ(y[i].real(), yr[i]);
    EXPECT_DOUBLE_EQ(y[i].imag(), yi[i]);
  }
}

TEST(Butterworth, RejectsBadArguments) {
  EXPECT_THROW(butterworth_bandpass(7, 10, 20, 100), Error);   // odd order
  EXPECT_THROW(butterworth_bandpass(4, 30, 20, 100), Error);   // lo > hi
  EXPECT_THROW(butterworth_bandpass(4, 10, 60, 100), Error);   // hi > fs/2
  EXPECT_THROW(butterworth_bandpass(4, 0.0, 20, 100), Error);  // lo == 0
}

}  // namespace
}  // namespace mmhand::dsp
