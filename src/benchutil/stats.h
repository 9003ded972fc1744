// Latency sample accumulator with percentile queries: `stats` retains
// every sample (exact percentiles via sort).
#pragma once

#include <string>
#include <vector>

namespace fastreg::benchutil {

class stats {
 public:
  void add(double sample) {
    samples_.push_back(sample);
    sorted_ = false;
  }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Percentile; p outside [0, 100] aborts (contract check), no samples
  /// returns 0. Linear interpolation on the sorted samples.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50() const { return percentile(50); }
  [[nodiscard]] double p99() const { return percentile(99); }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_{false};
};

/// "123.4" with the given precision; "-" when no samples.
[[nodiscard]] std::string fmt(double v, int precision = 1);

}  // namespace fastreg::benchutil
