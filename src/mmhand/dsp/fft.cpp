#include "mmhand/dsp/fft.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numbers>

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

/// Both twiddle caches are keyed by power-of-two FFT size, so instead
/// of a map probe under a mutex on *every* lookup (a lock the purity
/// analyzer rightly flags on the frame path), each cache is a fixed
/// array of atomic slots indexed by log2(n).  Steady state is one
/// acquire load; misses build the table under a mutex and publish with
/// a release store.  Entries are never evicted, so the returned
/// reference stays valid and FFTs run concurrently on pool threads.
constexpr std::size_t kMaxLog2 = 64;
std::atomic<const std::vector<Complex>*> g_twiddle_slots[kMaxLog2];
std::mutex g_twiddle_mu;

/// Forward twiddle factors e^{-2*pi*i*k/n} for k < n/2, cached per FFT
/// size.  The radar pipeline runs thousands of same-size FFTs per frame;
/// computing the table once replaces the per-butterfly `w *= wlen`
/// recurrence (and its accumulated rounding drift).
const std::vector<Complex>& twiddle_table(std::size_t n) {
  MMHAND_ASSERT(is_power_of_two(n));
  const unsigned idx = static_cast<unsigned>(std::countr_zero(n));
  if (const auto* t =
          g_twiddle_slots[idx].load(std::memory_order_acquire))
    return *t;
  std::lock_guard<std::mutex> lk(g_twiddle_mu);
  if (const auto* t =
          g_twiddle_slots[idx].load(std::memory_order_relaxed))
    return *t;
  auto table = std::make_unique<std::vector<Complex>>(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k)
    (*table)[k] = std::polar(
        1.0, -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n));
  // Released, never reclaimed: the cache owns one table per size for
  // the process lifetime, exactly as the map-of-unique_ptr did.
  const auto* published = table.release();
  g_twiddle_slots[idx].store(published, std::memory_order_release);
  return *published;
}

/// The same factors viewed as interleaved re,im doubles — the layout
/// the lane-batched FFT kernel broadcasts from.  std::complex<double>
/// is layout-compatible with double[2].
const double* twiddle_interleaved(std::size_t n) {
  return reinterpret_cast<const double*>(twiddle_table(n).data());
}

/// Per-stage twiddle tables for the SoA single-signal FFT: stage
/// len = 2, 4, ..., n contributes len/2 contiguous entries
/// w_n^{k * (n/len)}, so the vectorized butterfly loop loads twiddles
/// with unit stride.  n-1 doubles per component, cached like the main
/// table.
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

/// Grows-on-demand per-thread scratch for the lane-batched CZT path, so
/// the per-cell zoom transforms allocate nothing in steady state.
double* czt_scratch(std::size_t doubles) {
  thread_local aligned_vector<double> buf;
  if (buf.size() < doubles) buf.resize(doubles);
  return buf.data();
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

MMHAND_REALTIME
void fft_lanes_pow2(double* re, double* im, std::size_t n, bool inverse) {
  MMHAND_CHECK(is_power_of_two(n), "fft_lanes size " << n);
  if (n < 2) return;
  simd::kernels().fft_lanes(re, im, n, twiddle_interleaved(n), inverse);
}

MMHAND_REALTIME
void fft_soa_pow2(double* re, double* im, std::size_t n, bool inverse) {
  MMHAND_CHECK(is_power_of_two(n), "fft_soa size " << n);
  if (n < 2) return;
  const StageTwiddles& stw = stage_twiddles(n);
  simd::kernels().fft_soa(re, im, n, stw.re.data(), stw.im.data(), inverse);
}

CztPlan::CztPlan(std::size_t n, std::size_t m, Complex w, Complex a)
    : n_(n), m_(m), conv_(next_pow2(n + m - 1)) {
  MMHAND_CHECK(n >= 1 && m >= 1, "czt sizes n=" << n << " m=" << m);
  // Bluestein's algorithm: X_k = w^{k^2/2} * sum_n x_n a^{-n} w^{n^2/2}
  //                               * w^{-(k-n)^2/2}
  // i.e. a convolution evaluated with power-of-two FFTs.  The chirp
  // factors and the kernel spectrum are computed once, the spectrum with
  // the width-1 kernels, so the tables do not depend on the active ISA.
  //
  // Chirp factors w^{k^2/2} via angle accumulation, avoiding huge
  // integer squares that lose precision: arg(w^{k^2/2}) = k^2/2 * arg(w).
  const double wang = std::arg(w);
  const double wmag = std::abs(w);
  auto chirp = [&](double k2_half) {
    return std::polar(std::pow(wmag, k2_half), wang * k2_half);
  };

  fa_re_.resize(n);
  fa_im_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double i2 = 0.5 * static_cast<double>(i) * static_cast<double>(i);
    const Complex f = std::pow(a, -static_cast<double>(i)) * chirp(i2);
    fa_re_[i] = f.real();
    fa_im_[i] = f.imag();
  }

  fb_re_.assign(conv_, 0.0);
  fb_im_.assign(conv_, 0.0);
  const std::size_t lim = std::max(n, m);
  for (std::size_t i = 0; i < lim; ++i) {
    const double i2 = 0.5 * static_cast<double>(i) * static_cast<double>(i);
    const Complex v = chirp(-i2);
    auto put = [&](std::size_t j) {
      fb_re_[j] = v.real();
      fb_im_[j] = v.imag();
    };
    if (i < m) put(i);
    if (i >= 1 && i < n) put(conv_ - i);
  }
  simd::scalar_kernels().fft_lanes(fb_re_.data(), fb_im_.data(), conv_,
                                   twiddle_interleaved(conv_), false);

  out_re_.resize(m);
  out_im_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const double k2 = 0.5 * static_cast<double>(k) * static_cast<double>(k);
    const Complex c = chirp(k2);
    out_re_[k] = c.real();
    out_im_[k] = c.imag();
  }
}

std::vector<Complex> CztPlan::run(std::span<const Complex> x) const {
  MMHAND_CHECK(x.size() == n_, "czt plan input " << x.size() << " != " << n_);
  const auto& k = simd::kernels();
  aligned_vector<double> re(conv_, 0.0), im(conv_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  k.cmul(re.data(), im.data(), fa_re_.data(), fa_im_.data(), n_);
  fft_soa_pow2(re.data(), im.data(), conv_, false);
  k.cmul(re.data(), im.data(), fb_re_.data(), fb_im_.data(), conv_);
  fft_soa_pow2(re.data(), im.data(), conv_, true);
  k.cmul(re.data(), im.data(), out_re_.data(), out_im_.data(), m_);
  std::vector<Complex> out(m_);
  for (std::size_t i = 0; i < m_; ++i) out[i] = Complex{re[i], im[i]};
  return out;
}

MMHAND_REALTIME
void CztPlan::run_lanes(const double* re, const double* im, double* out_re,
                        double* out_im) const {
  const auto& k = simd::kernels();
  const std::size_t w = static_cast<std::size_t>(k.width);
  double* br = czt_scratch(2 * conv_ * w);
  double* bi = br + conv_ * w;
  std::copy(re, re + n_ * w, br);
  std::copy(im, im + n_ * w, bi);
  std::fill(br + n_ * w, br + conv_ * w, 0.0);
  std::fill(bi + n_ * w, bi + conv_ * w, 0.0);
  k.cmul_bcast(br, bi, fa_re_.data(), fa_im_.data(), n_);
  const double* tw = twiddle_interleaved(conv_);
  k.fft_lanes(br, bi, conv_, tw, false);
  k.cmul_bcast(br, bi, fb_re_.data(), fb_im_.data(), conv_);
  k.fft_lanes(br, bi, conv_, tw, true);
  std::copy(br, br + m_ * w, out_re);
  std::copy(bi, bi + m_ * w, out_im);
  k.cmul_bcast(out_re, out_im, out_re_.data(), out_im_.data(), m_);
}

namespace {

/// Append-only plan cache with a lock-free read path.  Keys are
/// arbitrary (size, bins, band) tuples, so there is no slot array to
/// index; instead published plans live on a singly-linked list whose
/// head is an atomic pointer.  A handful of distinct zoom geometries
/// exist per process, so the linear walk is shorter than the old
/// std::map probe — and it takes no lock.  Nodes are never removed,
/// preserving the reference-stays-valid contract.
struct PlanNode {
  std::size_t n;
  std::size_t bins;
  std::uint64_t f_lo_bits;
  std::uint64_t f_hi_bits;
  CztPlan plan;
  PlanNode* next;
};

std::atomic<PlanNode*> g_plan_head{nullptr};
std::mutex g_plan_mu;

}  // namespace

const CztPlan& zoom_plan(std::size_t n, double f_lo, double f_hi,
                         std::size_t bins) {
  const std::uint64_t lo = std::bit_cast<std::uint64_t>(f_lo);
  const std::uint64_t hi = std::bit_cast<std::uint64_t>(f_hi);
  for (const PlanNode* p = g_plan_head.load(std::memory_order_acquire);
       p != nullptr; p = p->next)
    if (p->n == n && p->bins == bins && p->f_lo_bits == lo &&
        p->f_hi_bits == hi)
      return p->plan;
  std::lock_guard<std::mutex> lk(g_plan_mu);
  // Re-scan under the lock: another thread may have published the plan
  // between the lock-free miss and acquiring the mutex.
  for (const PlanNode* p = g_plan_head.load(std::memory_order_relaxed);
       p != nullptr; p = p->next)
    if (p->n == n && p->bins == bins && p->f_lo_bits == lo &&
        p->f_hi_bits == hi)
      return p->plan;
  // X_k = sum_n x_n e^{-2*pi*i*(f_lo + k*step)*n}  ==  CZT with
  // A = e^{+2*pi*i*f_lo} (so A^{-n} gives the f_lo shift) and
  // W = e^{-2*pi*i*step} (so W^{nk} sweeps the band).
  const double step = (f_hi - f_lo) / static_cast<double>(bins);
  const Complex a = std::polar(1.0, 2.0 * kPi * f_lo);
  const Complex w = std::polar(1.0, -2.0 * kPi * step);
  auto node = std::make_unique<PlanNode>(
      PlanNode{n, bins, lo, hi, CztPlan(n, bins, w, a),
               g_plan_head.load(std::memory_order_relaxed)});
  const PlanNode* published = node.get();
  g_plan_head.store(node.release(), std::memory_order_release);
  return published->plan;
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
    const auto& tw = twiddle_table(n);  // e^{-2*pi*i*k/n}, k < n/2
    std::vector<Complex> out(n);
    for (std::size_t k = 0; k <= h / 2; ++k) {
      const std::size_t kc = (h - k) % h;
      const Complex z1{re[k], im[k]};
      const Complex z2{re[kc], -im[kc]};
      const Complex e = 0.5 * (z1 + z2);
      const Complex o = Complex{0.0, -0.5} * (z1 - z2);
      out[k] = e + tw[k] * o;
      if (k >= 1 && k < h - k) {
        // Mirror within the lower half: X_{h-k} = E_k' + tw O_k' with
        // E' = conj-mirror; computed directly from the same z pair.
        const Complex e2 = std::conj(e);
        const Complex o2 = std::conj(o);
        out[h - k] = e2 + tw[h - k] * o2;
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

std::vector<Complex> czt(std::span<const Complex> x, std::size_t m, Complex w,
                         Complex a) {
  return CztPlan(x.size(), m, w, a).run(x);
}

std::vector<Complex> zoom_fft(std::span<const Complex> x, double f_lo,
                              double f_hi, std::size_t bins) {
  MMHAND_CHECK(bins >= 1, "zoom_fft needs bins >= 1");
  MMHAND_CHECK(f_hi > f_lo, "zoom_fft band [" << f_lo << ", " << f_hi << ")");
  return zoom_plan(x.size(), f_lo, f_hi, bins).run(x);
}

}  // namespace mmhand::dsp
