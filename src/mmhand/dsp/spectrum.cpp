#include "mmhand/dsp/spectrum.hpp"

#include <algorithm>
#include <cmath>

#include "mmhand/common/aligned.hpp"
#include "mmhand/common/error.hpp"
#include "mmhand/simd/simd.hpp"

namespace mmhand::dsp {

std::vector<double> magnitude(std::span<const std::complex<double>> x) {
  std::vector<double> m(x.size());
  if (x.size() >= 8) {
    // Split to SoA once, then one vector sqrt per lane-width of
    // elements.  sqrt(re^2+im^2) forgoes std::abs's overflow rescaling,
    // which is irrelevant at radar signal magnitudes (DESIGN §9).
    // Spans under 8 keep std::abs so that their AVX2 results stay
    // bitwise stable.
    const std::size_t n = x.size();
    aligned_vector<double> re(n), im(n);
    for (std::size_t i = 0; i < n; ++i) {
      re[i] = x[i].real();
      im[i] = x[i].imag();
    }
    simd::kernels().vmag(re.data(), im.data(), m.data(), n);
    return m;
  }
  for (std::size_t i = 0; i < x.size(); ++i) m[i] = std::abs(x[i]);
  return m;
}

std::vector<double> magnitude_db(std::span<const std::complex<double>> x,
                                 double eps) {
  std::vector<double> m(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    m[i] = 20.0 * std::log10(std::abs(x[i]) + eps);
  return m;
}

std::vector<Peak> find_peaks(std::span<const double> mag, double min_value,
                             std::size_t max_peaks) {
  std::vector<Peak> peaks;
  const std::size_t n = mag.size();
  for (std::size_t i = 0; i < n; ++i) {
    const bool left_ok = (i == 0) || mag[i] > mag[i - 1];
    const bool right_ok = (i + 1 == n) || mag[i] > mag[i + 1];
    if (left_ok && right_ok && mag[i] >= min_value)
      peaks.push_back({i, mag[i]});
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.value > b.value; });
  if (peaks.size() > max_peaks) peaks.resize(max_peaks);
  return peaks;
}

std::size_t argmax(std::span<const double> mag) {
  MMHAND_CHECK(!mag.empty(), "argmax of empty span");
  return static_cast<std::size_t>(
      std::max_element(mag.begin(), mag.end()) - mag.begin());
}

}  // namespace mmhand::dsp
