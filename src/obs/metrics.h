// Process-wide metrics registry: counters, gauges and log-scale
// histograms cheap enough for the reactor hot path.
//
// Design goals, in order:
//  * An increment on a cached handle is one relaxed fetch_add on a
//    cache-line-padded shard (no locks, no branches beyond the add), so
//    instrumentation compiled into the wire path costs nothing
//    measurable when nobody is scraping.
//  * Handles are STABLE for the life of the process: the registry hands
//    out references into node-based storage and never removes a metric
//    (reset() zeroes values but keeps registrations), so callers fetch
//    once at construction time and cache the pointer.
//  * One text exposition format everywhere: `name{labels} value`, one
//    line per sample, rendered by render_samples for the whole registry
//    and for interval deltas alike — and parsed by the same validate_dump
//    used in tests and tools/obs_check. Every deployment runs in one
//    process, so reading the registry in-process is the only scrape.
//
// Histograms are fixed-bucket log-scale: 8 sub-buckets per power of two
// (worst-case relative quantization error ~9%), exact count/sum/min/max
// on the side. That makes percentile() a cumulative bucket walk — no
// sample retention.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fastreg::obs {

/// Monotonic counter, sharded to keep concurrent writers off one line.
class counter {
 public:
  static constexpr std::size_t k_shards = 8;

  void inc(std::uint64_t n = 1) {
    cell_for_thread().fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::atomic<std::uint64_t>& cell_for_thread();
  cell cells_[k_shards];
};

/// Last-write-wins signed gauge (set) with add/sub for level tracking.
class gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket log-scale histogram of non-negative integer samples
/// (typically nanoseconds). Bucket 0 holds zeros; bucket 1+k covers the
/// k-th log segment: 8 sub-buckets per octave, so any sample lands in a
/// bucket whose bounds are within ~9% of its value.
class histogram {
 public:
  static constexpr std::size_t k_sub_bits = 3;  // 8 sub-buckets/octave
  // 64 octaves x 8 sub-buckets, plus the dedicated zero bucket.
  static constexpr std::size_t k_buckets = 1 + (64u << k_sub_bits);

  /// Index of the bucket `v` falls in (stable across processes).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v);
  /// Representative value (geometric-ish midpoint) of bucket `idx`.
  [[nodiscard]] static std::uint64_t bucket_value(std::size_t idx);

  void observe(std::uint64_t v);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const;
  [[nodiscard]] std::uint64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }
  /// p in [0,100]. Bucket-walk estimate clamped to the exact observed
  /// [min, max]; 0 when empty.
  [[nodiscard]] std::uint64_t percentile(double p) const;

  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[k_buckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

enum class metric_kind : std::uint8_t { counter, gauge, histogram };

/// One rendered sample: `name{labels}` (labels may be empty) and the
/// numeric value. Histograms expand to several rows (_count, _sum,
/// _p50, _p99, _max). `cumulative` marks rows that accumulate over the
/// process lifetime (counters, histogram _count/_sum) and therefore
/// subtract meaningfully in diff_snapshot; level rows (gauges,
/// percentile estimates) pass through as-is.
struct sample {
  std::string name{};  // full series name, labels included
  double value{0};
  metric_kind kind{metric_kind::gauge};
  bool cumulative{false};
};

class registry {
 public:
  /// The process-wide instance every instrumented layer reports into.
  [[nodiscard]] static registry& instance();

  /// Fetch-or-create. `labels` is the rendered label body, e.g.
  /// `node="server:0"` (no braces); empty for an unlabeled series.
  /// Returned references stay valid for the life of the process.
  ///
  /// The CREATE branch takes the registry mutex and allocates; it is a
  /// startup-time path, not a hot-loop one. Threads that declare
  /// themselves hot loops (reactor threads, via mark_hot_loop_thread)
  /// trip a FASTREG_CHECK if a get_* call on them would register a new
  /// series -- handles must be pre-created before the loop starts.
  [[nodiscard]] counter& get_counter(std::string_view name,
                                     std::string_view labels = {});
  [[nodiscard]] gauge& get_gauge(std::string_view name,
                                 std::string_view labels = {});
  [[nodiscard]] histogram& get_histogram(std::string_view name,
                                         std::string_view labels = {});

  /// Declares (or undeclares) the calling thread a hot loop: any
  /// subsequent series CREATION from it is a contract violation. Fetches
  /// of existing series stay legal (they still lock, so hot paths should
  /// cache handles anyway).
  static void mark_hot_loop_thread(bool hot);

  /// All current samples, name-sorted (histograms expanded).
  [[nodiscard]] std::vector<sample> snapshot() const;
  /// The text dump: render_samples(snapshot()).
  [[nodiscard]] std::string render_text() const;
  /// Zeroes every value; registrations (and handles) survive.
  void reset();

 private:
  registry() = default;
  struct impl;
  [[nodiscard]] impl& self() const;
};

/// Conveniences over registry::instance().
[[nodiscard]] std::vector<sample> snapshot();
[[nodiscard]] std::string render_text();
void reset_metrics();

/// Per-interval view without resetting anybody's counters: cumulative
/// rows become cur - prev (0 when absent from prev, i.e. newly
/// registered); level rows (gauges, percentiles) keep their current
/// value. Inputs are name-sorted snapshots; so is the result.
[[nodiscard]] std::vector<sample> diff_snapshot(
    const std::vector<sample>& cur, const std::vector<sample>& prev);

/// Sum of the rows of series `name` (the part before any `{`), optionally
/// only those whose label set contains `label_substring` (for example
/// `node="s` for every server node); 0 when no row matches.
[[nodiscard]] double series_sum(const std::vector<sample>& rows,
                                std::string_view name,
                                std::string_view label_substring = {});

/// The text rendering of a sample list: one `name{labels} value` line per
/// row. render_text() is this over the whole registry.
[[nodiscard]] std::string render_samples(const std::vector<sample>& rows);

/// Phase-loop scrape helper: take() returns the delta since the last
/// take (or construction) and rolls the baseline forward. Lets bench
/// matrices report per-row counters without a registry reset between
/// rows (which would corrupt concurrent readers' cumulative series).
class interval_scrape {
 public:
  interval_scrape() : prev_(snapshot()) {}
  [[nodiscard]] std::vector<sample> take() {
    auto cur = snapshot();
    auto delta = diff_snapshot(cur, prev_);
    prev_ = std::move(cur);
    return delta;
  }

 private:
  std::vector<sample> prev_;
};

/// Validates a text dump against the exposition grammar (one
/// `name{key="value",...} number` per non-empty line). Returns an empty
/// string when valid, else a description of the first offending line.
/// Shared by tests and tools/obs_check.
[[nodiscard]] std::string validate_dump(std::string_view text);

}  // namespace fastreg::obs
