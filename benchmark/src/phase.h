// One measured pass of a workload on one deployment (internal to the
// benchmark): what the TCP and simulator runners hand to the report.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "breakdown.h"
#include "obs/metrics.h"
#include "spans.h"
#include "store/histories.h"
#include "store/shard_map.h"

namespace fastreg::bench {

struct phase {
  /// Wall seconds of each deployment built (construct, start, connect,
  /// preload every key).
  std::vector<double> setup_s;
  /// First measured submit -> last measured completion.
  double wall_s{0};
  /// Wall clock (ns) at the measured window's start, then when the
  /// k-th of k_slices equal shares of the measured ops had completed.
  std::vector<std::uint64_t> slice_ns;
  std::uint64_t attempted{0};
  std::uint64_t completed{0};
  /// Op-log latencies of completed measured ops, ascending, in clock
  /// units (ns on TCP, ticks on the simulator).
  std::vector<std::uint64_t> get_lat;
  std::vector<std::uint64_t> put_lat;
  double get_rounds{0};
  double put_rounds{0};
  bool verified{false};
  std::string verdict;
  double verify_s{0};
  double cpu_s{0};
  double ctx_switches{0};
  /// Registry deltas over the measured window.
  std::vector<obs::sample> registry;
  /// Simulator: messages, envelopes and ticks in the measured window.
  std::uint64_t msgs{0};
  std::uint64_t envelopes{0};
  std::uint64_t ticks{0};
  /// Restart schedule: persist replay time of the restarted server, and
  /// restart -> its first served op.
  double replay_ms{0};
  double rejoin_ms{0};
  /// Traced pass only.
  std::optional<breakdown> layers;
  std::vector<span> spans;
  /// Clock units per microsecond (1000 ns on TCP; one simulator tick is
  /// one microsecond of simulated time).
  double units_per_us{1000};
};

/// ops_per_s is the median of the slices' completion rates: a neighbour's
/// burst on a shared machine slows a few slices, not the median.
inline constexpr std::size_t k_slices = 20;

phase run_tcp(const plan& p, bool traced, const std::string& trace_dir);
phase run_sim(const plan& p, bool traced, const std::string& trace_dir);

// Shared by both runners.

/// The pinned store: S, t, R, W = 1, shards, the workload's protocol.
[[nodiscard]] store::store_config base_store_config(const plan& p);

/// Latencies, rounds and completion counts of the ops invoked at or
/// after `from` (clock units), the per-key verification, and (when
/// `ops` is given) the measured ops the breakdown matches events to.
void collect(const store::store_histories& h, std::uint64_t from, phase& out,
             std::vector<traced_op>* ops, span_lane* lane,
             std::uint64_t parent);

/// slice_ns for histories stamped with the wall clock (TCP): the
/// window starts at `from`; slices end at completion times.
[[nodiscard]] std::vector<std::uint64_t> slices_from_history(
    const store::store_histories& h, std::uint64_t from);

/// Dumps every node's recorder into `dir` and builds the breakdown.
breakdown analyze_recorders(const std::vector<traced_op>& ops,
                            const std::string& dir);

struct usage {
  double cpu_s{0};
  double ctx_switches{0};
};
[[nodiscard]] usage process_usage();

/// Sum of every series of `name` (any labels) in a registry sample list.
[[nodiscard]] double sum_series(const std::vector<obs::sample>& rows,
                                const std::string& name);

}  // namespace fastreg::bench
