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
#include <utility>
#include <vector>

#include "common/object_table.h"
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
  /// key_object_id(key), as the op was begun with.
  object_id obj{k_default_object};
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

  // ------------------------------------------------------------ front-end --
  // Call within an invocation step (world::invoke_step, or a TCP session's
  // step hook): begin one or more ops on DISTINCT keys, then flush()
  // exactly once.

  /// Starts a read of `key`, whose object id `obj` = key_object_id(key)
  /// the caller computed once (reader-role clients only), and returns
  /// the op's trace id. Precondition: no op pending on the object.
  std::uint64_t begin_get(std::string key, object_id obj);
  /// Starts a write of `key` (writer-role clients only); `obj` and the
  /// result as for begin_get. Precondition: no op pending on the object.
  std::uint64_t begin_put(std::string key, object_id obj, value_t v);
  /// Sends everything the begun ops produced, coalesced per destination.
  void flush(netout& net);

  /// Replaces `out` with the ops completed since the last call, in
  /// completion order. The two vectors trade buffers, so a caller that
  /// passes the same vector every step allocates none in steady state.
  void take_completions(std::vector<store_result>& out);
  /// True while an op on object `obj` is in flight (e.g. orphaned by a
  /// driver timeout); begin_get/begin_put on it would violate their
  /// precondition.
  [[nodiscard]] bool has_pending(object_id obj) const {
    const auto* st = objects_.find(obj);
    return st != nullptr && st->op.has_value();
  }

  // ---------------------------------------------------------- reconfig --
  // Reconfiguration surface; call between the automaton's steps (a
  // store::deployment visit or step).

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

  /// True while at least one invoked operation has not completed.
  [[nodiscard]] bool op_in_progress() const { return pending_ops_ != 0; }

  // automaton
  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  void on_batch(netout& net, const process_id& from,
                std::span<const message> msgs) override;
  [[nodiscard]] process_id self() const override { return self_; }

 private:
  /// Fields run from widest to narrowest, so the record packs into 96 B
  /// (it sits inline in every object's table slot).
  struct pending_op {
    std::string key{};
    value_t val{};  // written value, kept so the op can be re-issued
    /// Inner completion counter snapshot at (re-)invocation.
    std::uint64_t before{0};
    /// Epoch the current attempt was issued under. A nack reaching an
    /// attempt issued under an older epoch re-issues it; a nack at the
    /// attempt's own epoch parks it (handle_nack).
    epoch_t epoch{k_initial_epoch};
    /// Flight-recorder identity: assigned at begin_get/begin_put and
    /// kept across re-issues; span counts the re-issues.
    std::uint64_t trace{0};
    /// Current attempt id, from the per-object monotonic counter
    /// (object_state::attempts): advanced on every invocation AND
    /// re-issue, so stragglers aimed at an abandoned attempt -- of this
    /// op or any earlier op on the object -- are recognizably stale.
    /// Outbound messages carry it and nacks echo it.
    std::uint32_t attempt{0};
    std::uint16_t span{0};
    bool is_put{false};
    /// Parked: automaton discarded, waiting for resume_parked.
    bool parked{false};
  };

  /// One in-flight migration handoff op (coordinator-driven).
  struct mig_op {
    bool is_seed{false};
    object_id obj{k_default_object};
    std::uint64_t seq{0};
    server_set acked{};
    register_snapshot best{};
    bool done{false};
  };

  /// Everything the client keeps for one object, in one table slot, so a
  /// reply costs one lookup. Records are never erased, but an insert may
  /// move every record (common/object_table.h), and only begin and
  /// seed_writer_floor insert. on_batch's touched_ holds record
  /// addresses for the rest of its step; that is valid only because no
  /// insert happens during a step.
  struct object_state {
    /// The inner automaton; null until the first op, and again once a
    /// park or a protocol change discarded it.
    std::unique_ptr<automaton> a{};
    /// Epoch `a` was created under. Replies stamped with an older epoch
    /// belong to a superseded generation's automaton (a different
    /// protocol) and must not be fed to this one -- e.g. an abd read_ack
    /// carries no seen set and an empty prev tag, and would drive a
    /// fast_swmr reader's predicate-fail path to bottom.
    epoch_t birth{k_initial_epoch};
    /// a's client role, resolved once when `a` is created: the reader of
    /// a reader-role client, the writer of a writer-role one.
    reader_iface* reader{nullptr};
    writer_iface* writer{nullptr};
    /// Attempt counter, monotonic across the object's ops (pending_op).
    std::uint32_t attempts{0};
    /// The front-end op in flight on the object, parked ones included.
    std::optional<pending_op> op{};
    /// Migrated state: applied via writer_iface::seed_writer whenever
    /// the object's writer automaton is (re)created. Out of line, like
    /// the server's handoff block: only a reshard sets it, and the
    /// table's slots stay small.
    std::unique_ptr<register_snapshot> floor{};
  };

  std::uint64_t begin(std::string key, object_id obj, bool is_put, value_t v);
  /// Creates st's inner automaton under the current map if it has none.
  void ensure_inner(object_id obj, object_state& st);
  static void drop_inner(object_state& st);
  void invoke_on(object_id obj, object_state& st);
  void reissue(object_id obj, object_state& st);
  void park(object_id obj, object_state& st);
  object_state* handle_nack(const message& m);
  void handle_mig_ack(const process_id& from, const message& m);
  object_state* route(const process_id& from, const message& m);
  /// Shared nack/mig-ack/route dispatch; returns m.obj's record when its
  /// front-end op should be polled for completion afterwards.
  object_state* dispatch_one(const process_id& from, const message& m);
  void poll_object(object_id obj, object_state& st);

  std::shared_ptr<const shard_map> map_;
  map_source source_;
  process_id self_;
  object_table<object_state> objects_;
  /// Records whose op is engaged.
  std::size_t pending_ops_{0};
  /// on_batch's scratch: the records a step touched, in message order.
  std::vector<std::pair<object_id, object_state*>> touched_;
  std::optional<mig_op> mig_;
  std::uint64_t mig_seq_{0};
  batch_collector outbox_;
  std::vector<store_result> completions_;
  /// Flight recorder for this node (stable global; cached so the hot
  /// path never takes the registry lock).
  obs::recorder* rec_{nullptr};
};

[[nodiscard]] inline client* as_store_client(automaton* a) {
  return dynamic_cast<client*>(a);
}

}  // namespace fastreg::store
