// fastreg's benchmark: the workload table, the per-run plan, and the
// result every run reports.
//
// A workload is one traffic mix on one deployment. Every workload is a
// closed loop with a fixed op count: the count is the workload's nominal
// rate (ops per second when the benchmark was sized) times --seconds, so
// two commits run the same ops and their op-log memory compares. Scripts
// (keys, values, sim delays) derive from --seed alone; the program under
// test only ever sees the generated ops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fastreg::bench {

// Deployment pinned for every workload (README "Deployment").
inline constexpr std::uint32_t k_servers = 5;
inline constexpr std::uint32_t k_faults = 1;
inline constexpr std::uint32_t k_readers = 2;
inline constexpr std::uint32_t k_shards = 4;
inline constexpr std::uint32_t k_keys = 4096;
inline constexpr double k_zipf_s = 0.99;
inline constexpr std::uint64_t k_delay_lo = 50;
inline constexpr std::uint64_t k_delay_hi = 150;
/// Deployments built per run; setup_s is their median. A simulator
/// deployment builds in about 20 ms, so its median takes more samples.
inline constexpr int k_setups_tcp = 3;
inline constexpr int k_setups_sim = 15;
/// Recorder slots per node in a traced run: enough for the last 20k+
/// ops of every workload to survive whole (an abd get leaves 20 events
/// on its reader's ring).
inline constexpr std::size_t k_trace_ring = 1u << 18;

enum class transport { tcp, sim };
enum class key_dist { uniform, zipf };

struct workload {
  std::string name;
  std::string why;
  transport via{transport::tcp};
  std::string protocol;
  key_dist dist{key_dist::uniform};
  std::uint32_t value_bytes{16};
  /// Ops in flight per session (TCP window; sim batch).
  std::uint32_t depth{1};
  /// Gets per put: the run issues puts * gets_per_put gets, split evenly
  /// over the readers.
  std::uint32_t gets_per_put{1};
  /// Writer admits put k only after k * gets_per_put gets were submitted,
  /// so the put share holds through the whole run.
  bool paced{false};
  /// Puts per measured second when the benchmark was sized (sizes the
  /// op count).
  double puts_per_second{0};
  /// Op log + snapshots, fsync=interval (25 ms), snapshot every 512.
  bool persist{false};
  /// Stop server 5 after a third of the ops complete, restart it after
  /// two thirds.
  bool restart{false};
};

/// The four workloads, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<workload>& workloads();
[[nodiscard]] const workload* find_workload(std::string_view name);

/// One run's sizing: the workload with op counts for `seconds`.
struct plan {
  workload w;
  std::uint64_t seed{1};
  double seconds{10};
  std::uint64_t puts{0};
  std::uint64_t gets_per_reader{0};

  [[nodiscard]] std::uint64_t total_ops() const {
    return puts + gets_per_reader * k_readers;
  }
};
[[nodiscard]] plan make_plan(const workload& w, std::uint64_t seed,
                             double seconds);

/// Key-index script for one session: `n` draws from the workload's key
/// distribution. With `batch` > 1 every consecutive group of `batch`
/// keys is distinct (a sim batch is issued in one step).
[[nodiscard]] std::vector<std::uint32_t> make_script(const workload& w,
                                                     std::uint64_t seed,
                                                     std::uint32_t stream,
                                                     std::uint64_t n,
                                                     std::uint32_t batch);
[[nodiscard]] std::string key_name(std::uint32_t k);
/// The seq-th put's value: unique per seq, `bytes` long.
[[nodiscard]] std::string make_value(std::uint64_t seq, std::uint32_t bytes);

// ------------------------------------------------------------- results --

struct metric {
  double value{0};
  std::string unit;
};

struct run_result {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0};
  bool traced{false};
  /// Every measured op completed and every key's history verified
  /// (and, on the simulator, the traced pass reproduced the digest).
  bool correct{false};
  std::string verdict;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t get_samples{0};
  std::uint64_t put_samples{0};
  /// Pinned knobs, one `name=value` per entry.
  std::vector<std::string> config;
  /// Simulator only: hash and text of the exact counters.
  std::string digest;
  std::string digest_text;
  std::map<std::string, metric> metrics;
};

/// Gives every flight-recorder ring created after this call
/// k_trace_ring slots. Rings are created with the first deployment and
/// live as long as the process, so call it before any run.
void size_recorder_rings();

/// Every knob the run pins, one `name=value` per entry.
[[nodiscard]] std::vector<std::string> pinned_config(const plan& p,
                                                     bool traced);

/// Runs the plan. With an empty `trace_dir` the run is untraced;
/// otherwise it is measured twice in this process -- untraced, then with
/// the flight recorder on -- and the artifacts (spans.json, recorder
/// dumps, layers.json) land in `trace_dir`.
[[nodiscard]] run_result run(const plan& p, const std::string& trace_dir);

/// The run as one JSON object (the --json file).
[[nodiscard]] std::string to_json(const run_result& r);
/// Human-readable: config, metrics, digest.
[[nodiscard]] std::string to_text(const run_result& r);

}  // namespace fastreg::bench
