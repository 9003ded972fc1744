// The store's client front-end: one process multiplexing per-object
// reader or writer automata behind a get(key)/put(key, v) surface.
//
// Roles mirror the paper's client split: a reader-role client (process_id
// role::reader) serves gets, a writer-role client serves puts. For
// single-writer shard protocols the writer-role client 0 is the sole
// writer of every object, which preserves each protocol's correctness
// argument unchanged.
//
// Pipelining: well-formedness (one outstanding op per client) applies per
// OBJECT, because each object is an independent register with its own
// automaton. A client may therefore keep one op in flight on each of many
// distinct keys; all requests started before one flush() leave as batched
// envelopes (see batching.h), which is where the store's transport win
// comes from.
//
// Reconfiguration (src/reconfig): every outbound message is stamped with
// the epoch of the client's shard map. When a server's epoch_nack reveals
// a newer epoch, the client refetches the map from its map_source, drops
// the inner automata of objects whose protocol changed, and re-issues
// their in-flight ops under the new map (a fresh attempt number makes
// stale nacks recognizable). An op nacked because its key is still
// draining is PARKED -- automaton discarded, invocation remembered -- and
// re-issued when the migration coordinator signals the drain is over.
// Client-visible semantics are unchanged: one invocation, one completion,
// however many epochs the op crossed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "store/batching.h"
#include "store/shard_map.h"

namespace fastreg::store {

/// One store operation to invoke: a get of `key` (is_put false) or a put
/// of `val` to `key`. The unit the pipelined front-ends submit in.
struct store_op {
  std::string key{};
  bool is_put{false};
  value_t val{};
};

/// Result of one completed store operation, as observed by the client.
struct store_result {
  std::string key{};
  bool is_put{false};
  ts_t ts{k_initial_ts};
  std::int32_t wid{0};
  value_t val{};
  /// Communication round-trips the underlying register op used.
  int rounds{0};
};

class client final : public automaton {
 public:
  client(std::shared_ptr<const shard_map> shards, process_id self,
         map_source source = {});
  client(const client& o);
  client& operator=(const client&) = delete;

  // ------------------------------------------------------------ front-end --
  // Call within an invocation step (world::invoke_step, or a TCP session's
  // step hook): begin one or more ops on DISTINCT keys, then flush()
  // exactly once.

  /// Starts a read of `key` (reader-role clients only). Precondition: no
  /// op pending on this key.
  void begin_get(const std::string& key);
  /// Starts a write of `key` (writer-role clients only). Precondition: no
  /// op pending on this key.
  void begin_put(const std::string& key, value_t v);
  /// Sends everything the begun ops produced, coalesced per destination.
  void flush(netout& net);

  /// Completed ops since the last call, in completion order.
  [[nodiscard]] std::vector<store_result> take_completions();
  /// True while an op on `key` is in flight (e.g. orphaned by a driver
  /// timeout); begin_get/begin_put on such a key would violate their
  /// precondition.
  [[nodiscard]] bool has_pending(const std::string& key) const {
    return pending_.contains(key_object_id(key));
  }

  // ---------------------------------------------------------- reconfig --
  // Control-plane surface; call on the automaton's thread (between steps
  // on the simulator, via node::run_on_reactor on TCP).

  [[nodiscard]] epoch_t epoch() const { return map_->epoch(); }
  /// Ops parked behind a draining key, awaiting resume_parked.
  [[nodiscard]] std::size_t parked_count() const;

  /// Pulls the latest map from the map_source; if it is newer, drops the
  /// inner automata of objects whose protocol changed and re-issues their
  /// non-parked in-flight ops under the new epoch (sends buffer in the
  /// outbox; follow with flush()).
  void refresh_map();

  /// Re-issues the parked op (if any) the object holds, after refreshing
  /// the map. Called by the migration coordinator once the object's drain
  /// completed. Follow with flush().
  void resume_parked(object_id obj);

  /// Records the migrated state of the object so the writer automaton the
  /// next (re-)issued put creates starts above the migrated timestamp.
  /// Must be installed before the object's drain is lifted. A put already
  /// in flight on the object is parked (its automaton predates the floor,
  /// so its requests could complete below the seeded state); the resume
  /// that follows every floor install re-issues it floored.
  void seed_writer_floor(object_id obj, const register_snapshot& s);

  // Migration handoff I/O: the coordinator drives these on ONE client (by
  // convention reader 0). One handoff op at a time. The coordinator works
  // in object ids (live discovery reads them out of server indexes, where
  // the original key strings do not exist).

  /// Phase 1: ask every server for the old-generation state of the object
  /// (the generation superseded at `old_epoch` + 1). Completes --
  /// mig_done() -- after a quorum of valid answers; mig_snapshot() is
  /// their maximum.
  void begin_state_read(object_id obj, epoch_t old_epoch);
  /// Phase 2: install `s` as the new-generation state of the object on
  /// every server, stamped with `new_epoch` (the generation being
  /// seeded; servers drop seeds of another generation, so a seed_req
  /// delayed past the migration it belongs to cannot install stale
  /// state later). Completes after a QUORUM of acks -- the paper's
  /// t-crash tolerance holds through the handoff; servers that missed
  /// the seed lazily fetch it from a generation peer on first
  /// post-drain access (store/server.h).
  void begin_seed(object_id obj, const register_snapshot& s,
                  epoch_t new_epoch);
  [[nodiscard]] bool mig_done() const { return mig_.has_value() && mig_->done; }
  [[nodiscard]] const register_snapshot& mig_snapshot() const;

  // ------------------------------------------------------------- scrape --
  // Live introspection (src/obs): ask a store server for its metrics
  // dump over the data path. One scrape in flight at a time.

  /// Sends a stats_req to server `index`. Follow with flush(); the reply
  /// is stashed for take_stats().
  void begin_stats(std::uint32_t server_index);
  [[nodiscard]] bool stats_ready() const { return stats_.has_value(); }
  /// The scraped `name{labels} value` text dump; empty if none arrived.
  [[nodiscard]] std::string take_stats();

  /// True while at least one invoked operation has not completed.
  [[nodiscard]] bool op_in_progress() const { return !pending_.empty(); }

  // automaton
  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  void on_batch(netout& net, const process_id& from,
                std::span<const message> msgs) override;
  [[nodiscard]] std::unique_ptr<automaton> clone() const override;
  [[nodiscard]] process_id self() const override { return self_; }

  /// Distinct objects this client has touched (diagnostic).
  [[nodiscard]] std::size_t objects_hosted() const { return objects_.size(); }

 private:
  struct pending_op {
    std::string key{};
    bool is_put{false};
    value_t val{};  // written value, kept so the op can be re-issued
    /// Inner completion counter snapshot at (re-)invocation.
    std::uint64_t before{0};
    /// Current attempt id, from the per-object monotonic counter
    /// (attempts_): advanced on every invocation AND re-issue, so
    /// stragglers aimed at an abandoned attempt -- of this op or any
    /// earlier op on the object -- are recognizably stale. Outbound
    /// messages carry it and nacks echo it.
    std::uint32_t attempt{0};
    /// Epoch the current attempt was issued under. A nack reaching an
    /// attempt issued under an older epoch re-issues it; a nack at the
    /// attempt's own epoch parks it (handle_nack).
    epoch_t epoch{k_initial_epoch};
    /// Parked: automaton discarded, waiting for resume_parked.
    bool parked{false};
    /// Flight-recorder identity: assigned at begin_get/begin_put and
    /// kept across re-issues; span counts the re-issues.
    std::uint64_t trace{0};
    std::uint16_t span{0};
  };

  /// One in-flight migration handoff op (coordinator-driven).
  struct mig_op {
    bool is_seed{false};
    object_id obj{k_default_object};
    std::uint64_t seq{0};
    std::unordered_set<std::uint32_t> acked{};
    register_snapshot best{};
    bool done{false};
  };

  /// An inner automaton plus the epoch it was created under. Replies
  /// stamped with an older epoch belong to a superseded generation's
  /// automaton (a different protocol) and must not be fed to this one --
  /// e.g. an abd read_ack carries no seen set and an empty prev tag, and
  /// would drive a fast_swmr reader's predicate-fail path to bottom.
  struct inner_automaton {
    std::unique_ptr<automaton> a;
    epoch_t birth{k_initial_epoch};
  };

  automaton& inner_for(object_id obj);
  void invoke_on(object_id obj, pending_op& op);
  void reissue(object_id obj, pending_op& op);
  void park(object_id obj, pending_op& op);
  void handle_nack(const message& m);
  void handle_mig_ack(const process_id& from, const message& m);
  void route(const process_id& from, const message& m);
  /// Shared nack/mig-ack/route dispatch; returns true when m.obj's
  /// front-end op should be polled for completion afterwards.
  bool dispatch_one(const process_id& from, const message& m);
  void poll_object(object_id obj);

  std::shared_ptr<const shard_map> map_;
  map_source source_;
  process_id self_;
  std::unordered_map<object_id, inner_automaton> objects_;
  /// Migrated state per object: applied via writer_iface::seed_writer when
  /// the object's writer automaton is (re)created.
  std::unordered_map<object_id, register_snapshot> floors_;
  std::unordered_map<object_id, pending_op> pending_;
  /// Per-object attempt counter (monotonic across ops; see pending_op).
  std::unordered_map<object_id, std::uint32_t> attempts_;
  std::optional<mig_op> mig_;
  std::uint64_t mig_seq_{0};
  batch_collector outbox_;
  std::vector<store_result> completions_;
  /// Scrape state: stashed stats_ack dump and the sequence its reply
  /// must echo (stale acks of an earlier scrape are dropped).
  std::optional<std::string> stats_;
  std::uint64_t stats_seq_{0};
  /// Registry handles (per-client label); clones share them, so the
  /// registry counts the union while parked_count() stays exact.
  obs::counter* parks_total_{nullptr};
  obs::counter* resumes_total_{nullptr};
  /// Flight recorder for this node (stable global; cached like the
  /// counters so the hot path never takes the registry lock).
  obs::recorder* rec_{nullptr};
};

[[nodiscard]] inline client* as_store_client(automaton* a) {
  return dynamic_cast<client*>(a);
}

}  // namespace fastreg::store
