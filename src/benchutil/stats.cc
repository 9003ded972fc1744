#include "benchutil/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/check.h"

namespace fastreg::benchutil {

void stats::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double stats::mean() const {
  if (samples_.empty()) return 0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double stats::min() const {
  ensure_sorted();
  return samples_.empty() ? 0 : samples_.front();
}

double stats::max() const {
  ensure_sorted();
  return samples_.empty() ? 0 : samples_.back();
}

double stats::percentile(double p) const {
  // Out-of-domain p (including NaN) would index outside the sample array.
  FASTREG_EXPECTS(p >= 0 && p <= 100);
  if (samples_.empty()) return 0;
  ensure_sorted();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - std::floor(rank);
  return samples_[lo] * (1 - frac) + samples_[hi] * frac;
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace fastreg::benchutil
