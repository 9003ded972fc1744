// Seeded, reproducible randomized stress harness: drives any register
// protocol as a store shard across BOTH transports -- the deterministic
// simulator (adversarial message reordering or timed uniform delays) and
// the real-socket TCP cluster (pipelined client sessions sharing two
// client reactors) -- under one schedule of mid-run server crashes and
// restarts, minority isolations with a later heal, and a live reshard,
// and verifies every per-key history with the checker the protocol's
// contract calls for. The schedule acts through store::deployment's
// faults, so it reads the same on both transports. Each transport's load
// runs on its one load driver: benchutil/sim_driver.h on the simulator
// (the schedule is its per-round control), benchutil/tcp_driver.h on TCP
// (the schedule is polled every millisecond). The polynomial MWMR checker
// makes per-key histories of 10^4+ operations verifiable, which is the
// scale where fast-path violations that small histories never hit
// actually show up.
//
// Reproducibility contract: every run is a pure function of
// stress_options::seed. Tests take the seed from FASTREG_STRESS_SEED
// (random otherwise), print it on every failure, and the failing per-key
// history is dumped to a file whose path is part of the failure message,
// so any red run replays bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checker/atomicity.h"
#include "store/histories.h"

namespace fastreg::benchutil {

struct stress_options {
  /// Shard protocol driven on every shard (registry name).
  std::string protocol{"mwmr"};
  std::uint32_t num_shards{1};
  std::uint32_t num_keys{1};
  std::uint32_t S{5}, t{1}, b{0}, R{2}, W{2};
  /// Signature scheme for fast_bft shards ("" = none).
  std::string sig_scheme{};
  std::uint32_t puts_per_writer{200};
  std::uint32_t gets_per_reader{200};
  std::uint64_t seed{1};
  /// Simulator schedule: false = adversarial random reordering, true =
  /// timed steps with uniform link delays.
  bool timed{false};
  /// Crash this many servers a third of the way into the run
  /// (store::deployment::crash_server).
  std::uint32_t crash_servers{0};
  /// Restart every crashed server two thirds of the way in
  /// (store::deployment::restart_server). With persist_dir set the
  /// rejoining server replays its snapshot + op log before serving (the
  /// crash-RECOVERY schedule); without it the server rejoins empty, which
  /// is only safe because a state-less rejoiner is indistinguishable from
  /// a still-crashed replica within the t budget.
  bool restart_crashed{false};
  /// Isolate this many servers from EVERY other process a third of the
  /// way in, and heal them two thirds of the way in
  /// (store::deployment::isolate_server / heal_server): their messages
  /// are held back, then flush in a burst, and the protocols' quorum
  /// logic must absorb the stale flood without a violation. Isolated
  /// servers are taken from the LOW end of the index range so a combined
  /// crash+partition run (crashes take the high end) exercises disjoint
  /// sets; crash_servers + partition_servers must be <= t.
  std::uint32_t partition_servers{0};
  /// Run one live reshard a third of the way in, concurrent with the
  /// workload. Empty reshard_protocols = keep the same protocol and
  /// change only the shard count (epoch bump + routing change); naming
  /// protocols makes objects move through the full dual-quorum handoff.
  bool reshard{false};
  std::uint32_t reshard_num_shards{0};
  std::vector<std::string> reshard_protocols{};
  /// Non-empty: enable per-server durable state (src/persist/) rooted at
  /// this directory. Fsync policy comes from FASTREG_FSYNC (default
  /// interval); crash-then-restart schedules replay from here.
  std::string persist_dir{};
  /// Tag used in dump file names and failure messages.
  std::string label{"stress"};
};

struct stress_report {
  std::uint64_t seed{0};
  /// Client-visible op failures (TCP timeouts); always 0 on the sim.
  std::uint64_t op_failures{0};
  epoch_t final_epoch{0};
  /// The run's per-key histories: a copy of the sim store's, or the TCP
  /// deployment's gathered copy. Op counts and completeness are read here.
  store::store_histories hist{};
  /// Per-key verification under the protocol's contract checker.
  checker::check_result check{};
  /// Set when !check.ok: file holding the failing key's full history,
  /// headed by check.traces and, when recording, ending with their
  /// narratives.
  std::string dump_path{};
  /// Set when !check.ok and the flight recorder was on (FASTREG_OBS=
  /// record): one per-node recorder dump next to dump_path, pre-filtered
  /// to the failing key's object. Feed them to tools/trace_merge for the
  /// causally-ordered timeline of the violation.
  std::vector<std::string> recorder_paths{};

  [[nodiscard]] bool ok() const {
    return check.ok && hist.all_complete() && op_failures == 0;
  }
  /// One-line reproduction recipe for failure messages.
  [[nodiscard]] std::string describe() const;
};

/// The checker a shard protocol's history contract demands: mwmr for
/// multi-writer runs, conditions (1)-(3) for "regular", the exact SWMR
/// check otherwise.
[[nodiscard]] store::verify_mode stress_verify_mode(
    const stress_options& opt);

/// Runs the workload on the deterministic simulator.
[[nodiscard]] stress_report run_sim_stress(const stress_options& opt);

/// Runs the workload on the localhost TCP cluster: every client is an
/// actor of the client node (two reactors for all of them) and drives a
/// pipelined session through the unified async front-end, and a few
/// driver threads multiplex the sessions.
[[nodiscard]] stress_report run_tcp_stress(const stress_options& opt);

/// FASTREG_STRESS_SEED when set, otherwise fresh entropy. Print the seed
/// on every failure so the run can be replayed. The value must be a whole
/// number (decimal, 0x hex or 0 octal); anything else is warned about on
/// stderr and a fresh seed is used.
[[nodiscard]] std::uint64_t stress_seed_from_env();

/// `base` scaled by FASTREG_STRESS_ITERS (default 1): the knob nightly
/// soak jobs raise ~20x without touching the tests. A value that is not a
/// whole number >= 1 is warned about and the default kept.
[[nodiscard]] std::uint32_t stress_iters(std::uint32_t base);

}  // namespace fastreg::benchutil
