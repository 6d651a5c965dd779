#include "mmhand/dsp/butterworth.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "mmhand/common/error.hpp"

namespace mmhand::dsp {

namespace {

constexpr double kPi = std::numbers::pi;
using Cd = std::complex<double>;

}  // namespace

SosFilter::SosFilter(std::vector<Biquad> sections, double gain)
    : sections_(std::move(sections)), gain_(gain) {}

std::vector<double> SosFilter::filter(std::span<const double> x) const {
  std::vector<double> y(x.begin(), x.end());
  for (const Biquad& s : sections_) {
    double z1 = 0.0, z2 = 0.0;
    for (double& v : y) {
      const double in = v;
      const double out = s.b0 * in + z1;
      z1 = s.b1 * in - s.a1 * out + z2;
      z2 = s.b2 * in - s.a2 * out;
      v = out;
    }
  }
  for (double& v : y) v *= gain_;
  return y;
}

std::vector<double> SosFilter::filtfilt(std::span<const double> x) const {
  MMHAND_CHECK(x.size() >= 2, "filtfilt needs >= 2 samples");
  // Odd-reflection padding on both edges (scipy-style) to reduce startup
  // transients; pad length bounded by signal size.
  const std::size_t pad =
      std::min<std::size_t>(x.size() - 1, 3 * (2 * sections_.size() + 1));
  std::vector<double> ext;
  ext.reserve(x.size() + 2 * pad);
  for (std::size_t i = 0; i < pad; ++i)
    ext.push_back(2.0 * x[0] - x[pad - i]);
  ext.insert(ext.end(), x.begin(), x.end());
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < pad; ++i)
    ext.push_back(2.0 * x[n - 1] - x[n - 2 - i]);

  std::vector<double> fwd = filter(ext);
  std::reverse(fwd.begin(), fwd.end());
  std::vector<double> bwd = filter(fwd);
  std::reverse(bwd.begin(), bwd.end());
  return {bwd.begin() + static_cast<std::ptrdiff_t>(pad),
          bwd.begin() + static_cast<std::ptrdiff_t>(pad + n)};
}

std::vector<Cd> SosFilter::filtfilt(std::span<const Cd> x) const {
  std::vector<double> re(x.size()), im(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  const auto fre = filtfilt(std::span<const double>(re));
  const auto fim = filtfilt(std::span<const double>(im));
  std::vector<Cd> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = Cd{fre[i], fim[i]};
  return y;
}

Cd SosFilter::response(double f) const {
  const Cd z = std::polar(1.0, 2.0 * kPi * f);
  const Cd zi = 1.0 / z;
  Cd h{gain_, 0.0};
  for (const Biquad& s : sections_) {
    const Cd num = s.b0 + s.b1 * zi + s.b2 * zi * zi;
    const Cd den = 1.0 + s.a1 * zi + s.a2 * zi * zi;
    h *= num / den;
  }
  return h;
}

SosFilter butterworth_bandpass(int order, double f_lo, double f_hi,
                               double fs) {
  MMHAND_CHECK(order >= 2 && order % 2 == 0,
               "bandpass order must be even, got " << order);
  MMHAND_CHECK(0.0 < f_lo && f_lo < f_hi && f_hi < fs / 2.0,
               "band edges lo=" << f_lo << " hi=" << f_hi << " fs=" << fs);
  const int n = order / 2;  // lowpass prototype order

  // Pre-warp the band edges for the bilinear transform.
  const double fs2 = 2.0 * fs;
  const double w1 = fs2 * std::tan(kPi * f_lo / fs);
  const double w2 = fs2 * std::tan(kPi * f_hi / fs);
  const double bw = w2 - w1;
  const double w0 = std::sqrt(w1 * w2);

  // Lowpass prototype poles on the unit circle's left half.
  std::vector<Cd> analog_poles;
  analog_poles.reserve(static_cast<std::size_t>(2 * n));
  for (int k = 0; k < n; ++k) {
    const double theta = kPi * (2.0 * k + 1.0) / (2.0 * n) + kPi / 2.0;
    const Cd p = std::polar(1.0, theta);
    // Lowpass -> bandpass: each prototype pole spawns the two roots of
    // s^2 - p*bw*s + w0^2 = 0.
    const Cd pb = p * (bw / 2.0);
    const Cd disc = std::sqrt(pb * pb - Cd{w0 * w0, 0.0});
    analog_poles.push_back(pb + disc);
    analog_poles.push_back(pb - disc);
  }

  // Bilinear transform of poles; zeros map to z = +1 (n of them, from the
  // analog zeros at s = 0) and z = -1 (n of them, from s = infinity).
  std::vector<Cd> zpoles;
  zpoles.reserve(analog_poles.size());
  for (const Cd& s : analog_poles) zpoles.push_back((fs2 + s) / (fs2 - s));

  // Pair poles into biquads.  The lowpass->bandpass transform produces
  // conjugate-symmetric pole sets; sort by imaginary part magnitude and pair
  // each pole with its conjugate.
  std::vector<Cd> upper;
  for (const Cd& p : zpoles)
    if (p.imag() >= 0.0) upper.push_back(p);
  MMHAND_CHECK(upper.size() == static_cast<std::size_t>(n),
               "pole pairing failed: " << upper.size() << " upper poles");

  std::vector<Biquad> sections;
  sections.reserve(upper.size());
  for (std::size_t i = 0; i < upper.size(); ++i) {
    const Cd p = upper[i];
    Biquad s;
    // Denominator (z - p)(z - conj(p)): a1 = -2 Re(p), a2 = |p|^2.
    s.a1 = -2.0 * p.real();
    s.a2 = std::norm(p);
    // Numerator (z - 1)(z + 1) = z^2 - 1: one zero at +1, one at -1.
    s.b0 = 1.0;
    s.b1 = 0.0;
    s.b2 = -1.0;
    sections.push_back(s);
  }

  // Normalize gain to unity at the digital center frequency.
  const double f_center_analog = w0 / fs2;  // tan(pi*f_c/fs)
  const double f_center = std::atan(f_center_analog) * fs / kPi;
  SosFilter unnormalized(sections, 1.0);
  const double mag = std::abs(unnormalized.response(f_center / fs));
  MMHAND_CHECK(mag > 1e-12, "degenerate bandpass gain");
  return SosFilter(std::move(sections), 1.0 / mag);
}

}  // namespace mmhand::dsp
