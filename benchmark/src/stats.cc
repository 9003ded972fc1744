#include "stats.h"

#include <algorithm>

namespace fastreg::bench {

double percentile(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * n;
  const auto at = std::min(static_cast<std::size_t>(rank), sorted.size() - 1);
  const std::uint64_t x = sorted[at];
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), x);
  const auto hi = std::upper_bound(lo, sorted.end(), x);
  const double below = static_cast<double>(lo - sorted.begin());
  const double equal = static_cast<double>(hi - lo);
  return static_cast<double>(x) - 0.5 + (rank - below) / equal;
}

double supported_percentile(std::uint64_t n) {
  // Tail fractions 1/d for d = 2, 10, 100, ...: ten samples beyond the
  // percentile need n >= 10 * d.
  double p = 0;
  for (std::uint64_t d = 2; n >= 10 * d; d = d == 2 ? 10 : d * 10) {
    p = 100.0 - 100.0 / static_cast<double>(d);
  }
  return p;
}

double tail_percentile(const std::vector<std::uint64_t>& sorted, double p) {
  return percentile(sorted, std::min(p, supported_percentile(sorted.size())));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

}  // namespace fastreg::bench
