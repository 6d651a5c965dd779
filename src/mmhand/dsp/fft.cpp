#include "mmhand/dsp/fft.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>

#include "mmhand/common/aligned.hpp"
#include "mmhand/common/error.hpp"
#include "mmhand/common/realtime.hpp"
#include "mmhand/simd/kernels.hpp"
#include "mmhand/simd/simd.hpp"

namespace mmhand::dsp {

namespace {

constexpr double kPi = std::numbers::pi;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// The twiddle cache is keyed by power-of-two FFT size, so instead of
/// a map probe under a mutex on *every* lookup (a lock the purity
/// analyzer rightly flags on a frame path), it is a fixed array of
/// atomic slots indexed by log2(n).  Steady state is one acquire load;
/// misses build the table under a mutex and publish with a release
/// store.  Entries are never evicted, so the returned reference stays
/// valid and FFTs run concurrently on pool threads.
constexpr std::size_t kMaxLog2 = 64;

/// Per-stage twiddle tables for the SoA single-signal FFT: stage
/// len = 2, 4, ..., n contributes len/2 contiguous entries
/// w_n^{k * (n/len)}, so the vectorized butterfly loop loads twiddles
/// with unit stride.  n-1 doubles per component; the last block
/// (offset n/2 - 1) is e^{-2*pi*i*k/n} for k < n/2.
struct StageTwiddles {
  aligned_vector<double> re, im;
};

std::atomic<const StageTwiddles*> g_stage_slots[kMaxLog2];
std::mutex g_stage_mu;

const StageTwiddles& stage_twiddles(std::size_t n) {
  MMHAND_ASSERT(is_power_of_two(n));
  const unsigned idx = static_cast<unsigned>(std::countr_zero(n));
  if (const auto* t = g_stage_slots[idx].load(std::memory_order_acquire))
    return *t;
  std::lock_guard<std::mutex> lk(g_stage_mu);
  if (const auto* t = g_stage_slots[idx].load(std::memory_order_relaxed))
    return *t;
  auto table = std::make_unique<StageTwiddles>();
  table->re.reserve(n - 1);
  table->im.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t stride = n / len;
    for (std::size_t k = 0; k < len / 2; ++k) {
      const Complex w = std::polar(
          1.0, -2.0 * kPi * static_cast<double>(k * stride) /
                   static_cast<double>(n));
      table->re.push_back(w.real());
      table->im.push_back(w.imag());
    }
  }
  const auto* published = table.release();
  g_stage_slots[idx].store(published, std::memory_order_release);
  return *published;
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

MMHAND_REALTIME
void fft_soa_pow2(double* re, double* im, std::size_t n, bool inverse) {
  MMHAND_CHECK(is_power_of_two(n), "fft_soa size " << n);
  if (n < 2) return;
  const StageTwiddles& stw = stage_twiddles(n);
  simd::kernels().fft_soa(re, im, n, stw.re.data(), stw.im.data(), inverse);
}

std::vector<Complex> czt(std::span<const Complex> x, std::size_t m, Complex w,
                         Complex a) {
  const std::size_t n = x.size();
  MMHAND_CHECK(n >= 1 && m >= 1, "czt sizes n=" << n << " m=" << m);
  const std::size_t conv = next_pow2(n + m - 1);
  // Bluestein's algorithm: X_k = w^{k^2/2} * sum_n x_n a^{-n} w^{n^2/2}
  //                               * w^{-(k-n)^2/2}
  // i.e. a convolution evaluated with power-of-two FFTs.  The kernel
  // spectrum is computed with the width-1 kernels, so it does not depend
  // on the active ISA.
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

  aligned_vector<double> fb_re(conv, 0.0), fb_im(conv, 0.0);
  for (std::size_t i = 0; i < std::max(n, m); ++i) {
    const Complex v = chirp(-half_square(i));
    auto put = [&](std::size_t j) {
      fb_re[j] = v.real();
      fb_im[j] = v.imag();
    };
    if (i < m) put(i);
    if (i >= 1 && i < n) put(conv - i);
  }
  const StageTwiddles& stw = stage_twiddles(conv);
  simd::scalar_kernels().fft_soa(fb_re.data(), fb_im.data(), conv,
                                 stw.re.data(), stw.im.data(), false);

  // x times a^-i * w^{i^2/2}, zero-padded to the convolution size.
  aligned_vector<double> re(conv, 0.0), im(conv, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Complex f = x[i] * (std::pow(a, -static_cast<double>(i)) *
                              chirp(half_square(i)));
    re[i] = f.real();
    im[i] = f.imag();
  }
  const auto& k = simd::kernels();
  fft_soa_pow2(re.data(), im.data(), conv, false);
  k.cmul(re.data(), im.data(), fb_re.data(), fb_im.data(), conv);
  fft_soa_pow2(re.data(), im.data(), conv, true);
  std::vector<Complex> out(m);
  for (std::size_t i = 0; i < m; ++i)
    out[i] = Complex{re[i], im[i]} * chirp(half_square(i));
  return out;
}

namespace {

/// Power-of-two transform of one signal through the split-complex SIMD
/// FFT.
std::vector<Complex> fft_soa(std::span<const Complex> x, bool inverse) {
  const std::size_t n = x.size();
  aligned_vector<double> re(n), im(n);
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  fft_soa_pow2(re.data(), im.data(), n, inverse);
  std::vector<Complex> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = Complex{re[i], im[i]};
  return v;
}

}  // namespace

std::vector<Complex> fft(std::span<const Complex> x) {
  const std::size_t n = x.size();
  MMHAND_CHECK(n >= 1, "fft of empty signal");
  if (is_power_of_two(n)) return fft_soa(x, false);
  // Bluestein: DFT == CZT with a = 1, w = exp(-2*pi*i/n).
  const Complex w = std::polar(1.0, -2.0 * kPi / static_cast<double>(n));
  return czt(x, n, w, Complex{1.0, 0.0});
}

std::vector<Complex> ifft(std::span<const Complex> x) {
  const std::size_t n = x.size();
  MMHAND_CHECK(n >= 1, "ifft of empty signal");
  if (is_power_of_two(n)) return fft_soa(x, true);
  // Conjugation trick: ifft(x) = conj(fft(conj(x))) / n.
  std::vector<Complex> c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = std::conj(x[i]);
  auto y = fft(c);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (auto& v : y) v = std::conj(v) * inv_n;
  return y;
}

std::vector<Complex> fft_real(std::span<const double> x) {
  const std::size_t n = x.size();
  if (n >= 4 && is_power_of_two(n)) {
    // Real-input specialization: pack the even/odd samples into a
    // half-size complex signal, transform, and untangle
    //   X_k = E_k + e^{-2*pi*i*k/n} O_k
    // where E/O are the even/odd sub-spectra recovered from the packed
    // transform Z via E_k = (Z_k + conj(Z_{h-k}))/2,
    // O_k = -i (Z_k - conj(Z_{h-k}))/2.  Halves the butterfly work and
    // keeps the conjugate-symmetric upper half free.
    const std::size_t h = n / 2;
    aligned_vector<double> re(h), im(h);
    for (std::size_t i = 0; i < h; ++i) {
      re[i] = x[2 * i];
      im[i] = x[2 * i + 1];
    }
    fft_soa_pow2(re.data(), im.data(), h, false);
    const StageTwiddles& stw = stage_twiddles(n);
    const double* tw_re = stw.re.data() + (h - 1);  // e^{-2*pi*i*k/n}
    const double* tw_im = stw.im.data() + (h - 1);
    auto tw = [&](std::size_t k) { return Complex{tw_re[k], tw_im[k]}; };
    std::vector<Complex> out(n);
    for (std::size_t k = 0; k <= h / 2; ++k) {
      const std::size_t kc = (h - k) % h;
      const Complex z1{re[k], im[k]};
      const Complex z2{re[kc], -im[kc]};
      const Complex e = 0.5 * (z1 + z2);
      const Complex o = Complex{0.0, -0.5} * (z1 - z2);
      out[k] = e + tw(k) * o;
      if (k >= 1 && k < h - k) {
        // Mirror within the lower half: X_{h-k} = E_k' + tw O_k' with
        // E' = conj-mirror; computed directly from the same z pair.
        const Complex e2 = std::conj(e);
        const Complex o2 = std::conj(o);
        out[h - k] = e2 + tw(h - k) * o2;
      }
    }
    out[h] = Complex{re[0] - im[0], 0.0};
    for (std::size_t k = 1; k < h; ++k) out[n - k] = std::conj(out[k]);
    return out;
  }
  std::vector<Complex> c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = Complex{x[i], 0.0};
  return fft(c);
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
