// Percentiles of latency samples, and the rule that decides how far into
// the tail a sample of a given size may be read.
#pragma once

#include <cstdint>
#include <vector>

namespace fastreg::bench {

/// The p-th percentile (p in [0, 100]) of integer samples (nanoseconds
/// or simulator ticks), each read as the unit interval [x - 1/2, x + 1/2)
/// it was rounded from: the rank p/100 * n is located inside the run of
/// samples equal to x and interpolated across that interval. Distinct
/// samples give the sample itself (to half a unit); the simulator's
/// integer ticks give a value that still moves with the data instead of
/// sticking to one integer. `sorted` must be ascending; 0 when empty.
[[nodiscard]] double percentile(const std::vector<std::uint64_t>& sorted,
                                double p);

/// The highest of 50, 90, 99, 99.9, ... that has at least 10 of `n`
/// samples beyond it; 0 when n < 20 (not even the median qualifies).
[[nodiscard]] double supported_percentile(std::uint64_t n);

/// percentile(sorted, min(p, supported_percentile(n))).
[[nodiscard]] double tail_percentile(const std::vector<std::uint64_t>& sorted,
                                     double p);

[[nodiscard]] double median(std::vector<double> v);

}  // namespace fastreg::bench
