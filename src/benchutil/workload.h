// Measured simulation workloads: drive a protocol on the timed simulator
// and report per-operation latency (in simulated time units), round-trips,
// and message complexity. One simulated time unit = one "tick" of the
// uniform link-delay model; with delay U[lo, hi], a request/reply
// round-trip costs roughly lo+lo .. hi+hi ticks, so shapes (1 RTT vs 2
// RTT) are directly visible.
//
// run_measured drives raw registers with its own loop; the multi-key
// store workload (run_store_measured) runs on the one simulator load
// driver, benchutil/sim_driver.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "benchutil/stats.h"
#include "checker/history.h"
#include "registers/automaton.h"
#include "store/sim_store.h"

namespace fastreg::benchutil {

struct workload_options {
  std::uint32_t num_writes{20};
  std::uint32_t reads_per_reader{20};
  std::uint64_t seed{1};
  std::uint64_t delay_lo{50};
  std::uint64_t delay_hi{150};
  /// false: ops run one at a time (pure latency). true: every client is
  /// closed-loop (contention shapes).
  bool concurrent{false};
  /// Crash this many servers up front (must be <= cfg.t()).
  std::uint32_t crash_servers{0};
  /// Crash them mid-run (after half the writes) instead of up front.
  bool crash_midway{false};
};

struct latency_report {
  stats read_latency;
  stats write_latency;
  /// Rounds per completed op, from the history records. A recorder test
  /// (test_recorder.cc) checks them against the requests each op put on
  /// the wire.
  stats read_rounds;
  stats write_rounds;
  double msgs_per_op{0};
  bool all_complete{true};
  checker::history hist;
};

/// Runs the workload on the timed simulator and collects the report.
[[nodiscard]] latency_report run_measured(const protocol& proto,
                                          const system_config& cfg,
                                          const workload_options& opt);

// ------------------------------------------------------- multi-key store --

/// How the closed-loop store workload picks keys.
enum class key_dist {
  uniform,
  /// Zipf(s) over key rank: P(key_i) proportional to 1/(i+1)^s. The skew
  /// that makes one shard hot -- the scenario per-shard protocol choice
  /// and live resharding exist for.
  zipf,
};

/// Inverse-CDF Zipf sampler over ranks 0..n-1 (rank 0 hottest).
/// Construction is O(n); sampling is O(log n).
class zipf_sampler {
 public:
  zipf_sampler(std::uint32_t n, double s);
  [[nodiscard]] std::uint32_t sample(rng& r) const;
  /// P(rank k): the sampler's exact discrete distribution.
  [[nodiscard]] double probability(std::uint32_t k) const;
  /// Domain size: ranks 0..n()-1.
  [[nodiscard]] std::uint32_t n() const {
    return static_cast<std::uint32_t>(cdf_.size());
  }

 private:
  std::vector<double> cdf_;  // cdf_[k] = P(rank <= k), cdf_.back() == 1
};

/// Closed-loop multi-key store workload: every client keeps `batch`
/// pipelined ops in flight on distinct random keys (readers issue gets,
/// writers issue puts with per-writer-unique values) and re-invokes the
/// moment its batch completes. Batched transport makes the
/// envelopes-per-op vs messages-per-op gap the headline number.
struct store_workload_options {
  std::uint32_t num_keys{16};
  std::uint32_t gets_per_reader{100};
  std::uint32_t puts_per_writer{40};
  /// Ops pipelined per invocation step (capped at num_keys).
  std::uint32_t batch{4};
  std::uint64_t seed{1};
  std::uint64_t delay_lo{50};
  std::uint64_t delay_hi{150};
  key_dist dist{key_dist::uniform};
  /// Zipf exponent (dist == zipf); 0.99 is the YCSB-style default.
  double zipf_s{0.99};
};

struct store_report {
  stats get_latency;
  stats put_latency;
  /// Completed ops per 1000 simulated ticks.
  double ops_per_ktick{0};
  double msgs_per_op{0};
  double envelopes_per_op{0};
  /// Every per-key history; completeness is hist.all_complete().
  store::store_histories hist;
};

/// Runs the store workload on the timed simulator.
[[nodiscard]] store_report run_store_measured(
    const store::store_config& cfg, const store_workload_options& opt);

/// Samples `k` distinct key names ("key0".."key{n-1}") by partial
/// Fisher-Yates over a caller-owned index scratchpad of size n. Shared by
/// the closed-loop generator and the store benches.
[[nodiscard]] std::vector<std::string> sample_distinct_keys(
    rng& r, std::vector<std::uint32_t>& idx, std::uint32_t k);

/// Samples `k` distinct key names Zipf-distributed by rank (rejection on
/// duplicates, so small k stays hot-key heavy without repeats). Requires
/// k <= zipf.n().
[[nodiscard]] std::vector<std::string> sample_distinct_keys_zipf(
    rng& r, const zipf_sampler& zipf, std::uint32_t k);

// ----------------------------------------------------- op-log latency --

/// One completed op from the op log, in the log's clock: simulator ticks,
/// or steady-clock nanoseconds on TCP.
struct timed_op {
  std::uint64_t invoke{0};
  std::uint64_t response{0};
  [[nodiscard]] std::uint64_t latency() const { return response - invoke; }
};

struct op_times {
  std::vector<timed_op> gets;
  std::vector<timed_op> puts;
  /// Ops invoked at or after t0 that never completed.
  std::uint64_t incomplete{0};
  [[nodiscard]] std::size_t completed() const {
    return gets.size() + puts.size();
  }
};

/// The completed ops of `hist` invoked at or after `t0`, gets apart from
/// puts, and the count of those that never completed.
[[nodiscard]] op_times ops_since(const store::store_histories& hist,
                                 std::uint64_t t0);

/// Each op's latency divided by `unit` (1000 turns TCP nanoseconds into
/// microseconds).
[[nodiscard]] stats latencies(const std::vector<timed_op>& ops,
                              double unit = 1);

}  // namespace fastreg::benchutil
