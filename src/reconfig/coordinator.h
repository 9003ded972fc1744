// The reconfiguration coordinator: installs an epoch-versioned shard map
// fleet-wide and migrates every moved object online.
//
// Protocol (per reconfiguration):
//  1. PRE-FLIGHT: count reachable servers (fewer than a quorum aborts the
//     reconfiguration before anything is installed) and collect each
//     server's unseeded_moved_objects() -- state a server fenced in the
//     previous generation but never received the seed for. Those objects
//     are FORCE-MOVED: fenced and handed off again even if their protocol
//     does not change, so no replica silently serves regressed state.
//  2. INSTALL + DISCOVERY: install the new map on every reachable server
//     (each starts tagging replies with the new epoch and fencing moved
//     objects) and, in the same visit, read the server's object
//     index. The migration set is the union of the indexes -- every
//     completed write created instances on a quorum of servers, so a
//     quorum of indexes covers every key the store actually hosts; the
//     constructor's `keys` list only ADDS candidates (it is no longer
//     required to be complete). Then publish the map so clients refetch.
//  3. Per moved object, a dual-quorum handoff:
//     a. STATE READ: ask all servers for the old-generation state, take
//        the maximum over a quorum of answers. Quorum intersection with
//        the old generation's write/read quorums guarantees the maximum
//        is at least as new as anything a completed old-epoch op
//        established (the feasibility conditions S > 2t, resp.
//        S > (R+2)t + (R+1)b, give a nonempty intersection);
//     b. WRITER FLOOR: hand the snapshot to every writer client, so the
//        fresh writer automaton the object gets at the new epoch resumes
//        above the migrated timestamp;
//     c. SEED: install the snapshot as the object's new-generation state;
//        completes at a QUORUM of acks;
//     d. RESUME: unpark the object on every client.
//  4. done when every moved object drained.
//
// LIVENESS: every wait in the pipeline is a quorum wait, so the
// deployment keeps the t-crash tolerance of the underlying register
// protocols THROUGH a reconfiguration: a reshard completes, and every
// parked client op resumes, with up to t servers crashed or partitioned.
// A server that missed the quorum seed of step 3c pulls the snapshot from
// a generation peer on its first post-drain access (the lazy seed fetch,
// store/server.h) before answering, so it cannot stall clients either.
// Keys never listed and never written are also safe: discovery covers
// everything hosted, and a first-ever access to a brand-new object under
// a drained map self-seeds bottom once a safe majority of peers confirms
// no old-generation state exists. (The pre-PR-3 implementation seeded the
// FULL fleet and migrated only the keys it was given; see CHANGES.md.)
//
// The coordinator is an incremental state machine: start() performs the
// synchronous installs, then step() advances the handoff pipeline; call
// it interleaved with whatever is driving the transport (simulator
// steps, or a polling loop next to live TCP traffic). This keeps client
// operations flowing DURING the migration, which is the point of the
// exercise.
//
// The coordinator reaches processes only through its store::deployment:
// it visits servers (installs, discovery) and the migrator, reader 0
// (is its handoff op done?), and runs steps of clients (handoff ops,
// writer floors, resumes). A server the deployment refuses (crashed or
// stopped) is skipped -- the quorum handoff tolerates t of them. A
// refused client is a contract violation: clients outlive the reshard.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "reconfig/plan.h"
#include "store/store.h"

namespace fastreg::reconfig {

struct reconfig_stats {
  epoch_t new_epoch{0};
  /// Distinct objects the servers' indexes reported hosting.
  std::size_t keys_discovered{0};
  std::size_t keys_considered{0};
  std::size_t keys_moved{0};
};

class coordinator {
 public:
  /// `keys`: extra keys to consider for handoff, beyond what discovery
  /// finds in the servers' object indexes. Listing keys is optional --
  /// anything a completed write created is discovered -- and listing a
  /// key that does not move (or duplicating one) is harmless.
  ///
  /// One coordinator drives ONE reconfiguration: construct a fresh one
  /// per reshard (start() on a finished coordinator trips its
  /// phase-is-idle contract check rather than reusing stale handoff
  /// state). A start() that returned false may be retried.
  explicit coordinator(store::deployment& dep,
                       std::vector<std::string> keys = {});

  /// Validates the plan against the deployment's installed map, installs
  /// the new map on every reachable server (at least a quorum must be
  /// reachable), discovers the hosted object set and publishes the map.
  /// Returns false (with error()) on an invalid plan or an unreachable
  /// fleet. On success the migration pipeline is armed; drive it with
  /// step().
  bool start(const reconfig_plan& plan);

  /// Advances the migration by at most one control action. Call
  /// repeatedly, interleaved with transport progress, until done().
  void step();

  [[nodiscard]] bool done() const { return phase_ == phase::done; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const reconfig_stats& stats() const { return stats_; }

 private:
  enum class phase { idle, reading, seeding, done };

  /// True when `obj`'s state must be handed off under this plan.
  [[nodiscard]] bool target_moves(object_id obj) const;
  /// Skips objects that do not move; arms the next handoff or finishes.
  void advance_target();
  /// Runs `fn` as a step of client `p`, then flushes the client's sends.
  void step_client(const process_id& p,
                   const std::function<void(store::client&)>& fn);
  /// step_client on every writer, then every reader.
  void step_clients(const std::function<void(store::client&)>& fn);
  /// True when the migrator's handoff op completed; a completed state
  /// read's snapshot is copied into `snap` when given.
  bool migrator_done(register_snapshot* snap = nullptr);

  store::deployment& dep_;
  std::vector<std::string> keys_;
  /// Handoff candidates: the explicit keys' objects first, then every
  /// discovered object not already covered (sorted for determinism).
  std::vector<object_id> targets_;
  /// Objects already handed off this reconfiguration (dedups targets_).
  std::unordered_set<object_id> handled_;
  /// Objects re-fenced by fiat because a server reported missing their
  /// previous generation's seed (their protocol may be unchanged).
  std::unordered_set<object_id> force_move_;
  std::shared_ptr<const store::shard_map> old_map_;
  std::shared_ptr<const store::shard_map> new_map_;
  std::size_t next_target_{0};
  object_id cur_obj_{k_default_object};
  phase phase_{phase::idle};
  std::string error_{};
  reconfig_stats stats_{};
};

}  // namespace fastreg::reconfig
