// Order statistics used by every workload: nearest-rank percentiles, the
// tail rule (a percentile is reported only when at least ten samples lie
// beyond it), and quartile spreads.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile q (0 < q <= 100) among n samples.
inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  const double r = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

/// Samples strictly above the nearest-rank percentile q.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

/// True when percentile q of n samples has at least `min_beyond` samples
/// beyond it, so the tail value rests on more than a handful of outliers.
inline bool tail_supported(std::size_t n, double q,
                           std::size_t min_beyond = 10) {
  return n > 0 && samples_beyond(n, q) >= min_beyond;
}

/// The highest of the usual reporting percentiles that n samples support
/// (0 when even the median has fewer than ten samples beyond it).
inline double highest_supported_percentile(std::size_t n) {
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (tail_supported(n, q)) {
      return q;
    }
  }
  return 0.0;
}

/// Nearest-rank percentile; v need not be sorted.  0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Midpoint median (mean of the two middle samples for even n).
inline double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Windows to split n time-ordered samples into: as many as keep at least
/// `min_per_window` samples in each (so a window's p90 still has ten
/// samples beyond it), at most `max_windows`, at least one.
inline std::size_t window_count(std::size_t n, std::size_t min_per_window = 100,
                                std::size_t max_windows = 5) {
  return std::clamp<std::size_t>(n / min_per_window, 1, max_windows);
}

/// Median over k contiguous windows of stat(window).  A burst of outside
/// load that slows one stretch of a run moves one window, not the result.
template <class Stat>
double median_of_windows(const std::vector<double>& v, std::size_t k,
                         Stat stat) {
  std::vector<double> per;
  for (std::size_t w = 0; w < k; ++w) {
    const auto b = v.begin() + static_cast<std::ptrdiff_t>(v.size() * w / k);
    const auto e =
        v.begin() + static_cast<std::ptrdiff_t>(v.size() * (w + 1) / k);
    per.push_back(stat(std::vector<double>(b, e)));
  }
  return median(per);
}

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) {
    s += x;
  }
  return s;
}

inline double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

} // namespace perfbench
