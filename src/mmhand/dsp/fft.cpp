#include "mmhand/dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "mmhand/common/error.hpp"

namespace mmhand::dsp {

namespace {

constexpr double kPi = std::numbers::pi;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// In-place radix-2 FFT of one split re/im signal of power-of-two size
/// n.  Stage len uses the twiddles w_n^{k * (n/len)}, conjugated as
/// 0 - im for the inverse, which is then scaled by 1/n.  Products and
/// sums stay separate (no fused multiply-add), so the bits do not
/// depend on the host.
void fft_pow2(double* re, double* im, std::size_t n, bool inverse) {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t k = 0; k < half; ++k) {
      const Complex w = std::polar(
          1.0, -2.0 * kPi * static_cast<double>(k * (n / len)) /
                   static_cast<double>(n));
      const double wr = w.real();
      const double wi = inverse ? 0.0 - w.imag() : w.imag();
      for (std::size_t u = k; u < n; u += len) {
        const std::size_t v = u + half;
        const double xr = re[v], xi = im[v];
        const double vr = xr * wr - xi * wi;
        const double vi = xr * wi + xi * wr;
        const double ur = re[u], ui = im[u];
        re[u] = ur + vr;
        im[u] = ui + vi;
        re[v] = ur - vr;
        im[v] = ui - vi;
      }
    }
  }
  if (inverse) {
    const double s = 1.0 / static_cast<double>(n);
    for (std::size_t j = 0; j < n; ++j) {
      re[j] *= s;
      im[j] *= s;
    }
  }
}

/// Power-of-two transform of an interleaved signal through fft_pow2.
std::vector<Complex> fft_pow2(std::span<const Complex> x, bool inverse) {
  const std::size_t n = x.size();
  std::vector<double> re(n), im(n);
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  fft_pow2(re.data(), im.data(), n, inverse);
  std::vector<Complex> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = Complex{re[i], im[i]};
  return v;
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::vector<Complex> czt(std::span<const Complex> x, std::size_t m, Complex w,
                         Complex a) {
  const std::size_t n = x.size();
  MMHAND_CHECK(n >= 1 && m >= 1, "czt sizes n=" << n << " m=" << m);
  const std::size_t conv = next_pow2(n + m - 1);
  // Bluestein's algorithm: X_k = w^{k^2/2} * sum_n x_n a^{-n} w^{n^2/2}
  //                               * w^{-(k-n)^2/2}
  // i.e. a convolution evaluated with power-of-two FFTs.
  //
  // Chirp factors w^{k^2/2} via angle accumulation, avoiding huge
  // integer squares that lose precision: arg(w^{k^2/2}) = k^2/2 * arg(w).
  const double wang = std::arg(w);
  const double wmag = std::abs(w);
  auto chirp = [&](double k2_half) {
    return std::polar(std::pow(wmag, k2_half), wang * k2_half);
  };
  auto half_square = [](std::size_t i) {
    return 0.5 * static_cast<double>(i) * static_cast<double>(i);
  };

  std::vector<double> fb_re(conv, 0.0), fb_im(conv, 0.0);
  for (std::size_t i = 0; i < std::max(n, m); ++i) {
    const Complex v = chirp(-half_square(i));
    auto put = [&](std::size_t j) {
      fb_re[j] = v.real();
      fb_im[j] = v.imag();
    };
    if (i < m) put(i);
    if (i >= 1 && i < n) put(conv - i);
  }
  fft_pow2(fb_re.data(), fb_im.data(), conv, false);

  // x times a^-i * w^{i^2/2}, zero-padded to the convolution size.
  std::vector<double> re(conv, 0.0), im(conv, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Complex f = x[i] * (std::pow(a, -static_cast<double>(i)) *
                              chirp(half_square(i)));
    re[i] = f.real();
    im[i] = f.imag();
  }
  fft_pow2(re.data(), im.data(), conv, false);
  for (std::size_t j = 0; j < conv; ++j) {
    const double xr = re[j], xi = im[j];
    re[j] = xr * fb_re[j] - xi * fb_im[j];
    im[j] = xr * fb_im[j] + xi * fb_re[j];
  }
  fft_pow2(re.data(), im.data(), conv, true);
  std::vector<Complex> out(m);
  for (std::size_t i = 0; i < m; ++i)
    out[i] = Complex{re[i], im[i]} * chirp(half_square(i));
  return out;
}

std::vector<Complex> fft(std::span<const Complex> x) {
  const std::size_t n = x.size();
  MMHAND_CHECK(n >= 1, "fft of empty signal");
  if (is_power_of_two(n)) return fft_pow2(x, false);
  // Bluestein: DFT == CZT with a = 1, w = exp(-2*pi*i/n).
  const Complex w = std::polar(1.0, -2.0 * kPi / static_cast<double>(n));
  return czt(x, n, w, Complex{1.0, 0.0});
}

std::vector<Complex> ifft(std::span<const Complex> x) {
  const std::size_t n = x.size();
  MMHAND_CHECK(n >= 1, "ifft of empty signal");
  if (is_power_of_two(n)) return fft_pow2(x, true);
  // Conjugation trick: ifft(x) = conj(fft(conj(x))) / n.
  std::vector<Complex> c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = std::conj(x[i]);
  auto y = fft(c);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (auto& v : y) v = std::conj(v) * inv_n;
  return y;
}

std::vector<Complex> fft_shift(std::span<const Complex> x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  const std::size_t half = (n + 1) / 2;  // index of first "negative" bin
  for (std::size_t i = 0; i < n; ++i) out[i] = x[(i + half) % n];
  return out;
}

std::vector<Complex> zoom_fft(std::span<const Complex> x, double f_lo,
                              double f_hi, std::size_t bins) {
  MMHAND_CHECK(bins >= 1, "zoom_fft needs bins >= 1");
  MMHAND_CHECK(f_hi > f_lo, "zoom_fft band [" << f_lo << ", " << f_hi << ")");
  // X_k = sum_n x_n e^{-2*pi*i*(f_lo + k*step)*n}  ==  CZT with
  // A = e^{+2*pi*i*f_lo} (so A^{-n} gives the f_lo shift) and
  // W = e^{-2*pi*i*step} (so W^{nk} sweeps the band).
  const double step = (f_hi - f_lo) / static_cast<double>(bins);
  return czt(x, bins, std::polar(1.0, -2.0 * kPi * step),
             std::polar(1.0, 2.0 * kPi * f_lo));
}

}  // namespace mmhand::dsp
