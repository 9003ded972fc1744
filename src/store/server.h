// The store's server automaton: one process hosting per-object server
// automata, created lazily on first traffic for an object. Replies
// triggered by one delivered batch coalesce into batched envelopes (one
// per destination), so a client that pipelined k ops gets its k acks back
// in a single transport unit.
//
// Reconfiguration (src/reconfig): install_map moves the server to the
// next epoch. Objects whose protocol changed ("moved") have their old
// instances set aside as the previous generation; stale-epoch requests
// for them are nacked (clients routed by a superseded map refetch).
// Unmoved objects keep their instances and are served across the epoch
// boundary without interruption.
//
// Lazy seed fetch: the migration coordinator seeds a moved object's
// new-generation state on a QUORUM of servers (reconfig/coordinator.h).
// A server that has not seen the seed -- the handoff may still be in
// flight, or this server was partitioned out of the seeded quorum -- and
// receives a current-epoch data message for the object does not nack it:
// it buffers the message and asks its generation peers for the seeded
// snapshot (fetch_req). The first peer that holds the generation's
// ORIGINAL seed snapshot supplies it (fetch_ack with k_fetch_seeded); the
// server seeds from it and replays the buffered messages. Otherwise the
// fetch resolves once a safe majority of peers answered (of the S-1
// peers, at most t may be crashed, so S-1-t answers is the most it may
// wait for):
//  * Some answerer (or this server) still holds previous-generation
//    state for the object: the handoff is in flight. The buffered
//    messages stay buffered, and every peer that answered "no seed"
//    recorded a SUBSCRIPTION; the moment it adopts a seed it pushes an
//    unsolicited seeded fetch_ack to its subscribers. The coordinator's
//    seed wave reaches a quorum, and (feasibility: S > 2t) at least one
//    quorum member is among the S-1-t answerers, so the notification --
//    and with it the buffered messages' replay -- cannot be lost. No
//    nack is involved, so there is no window where a client parks after
//    the coordinator already resumed its object.
//  * Nobody reachable holds old-generation state or a seed: the object
//    was never written (any state a completed old-epoch op established
//    lives on a quorum, which intersects the answerers plus self). The
//    server self-seeds the initial snapshot -- a register nobody ever
//    wrote starts at bottom -- and serves; this is how a brand-new key
//    becomes usable under a drained map without any operator listing it.
// Only the crash model runs this path: plans that move state under b > 0
// are rejected at validation (reconfig/plan.cc).
//
// State layout: one table with one record per object (object_state),
// found with one lookup per served message. What a reshard adds for an
// object lives in the record's out-of-line handoff block, which every
// install_map clears. The table (common/object_table.h) keeps records
// inline, so an insert or erase may move every one of them. handle_one
// holds its record across the automaton step, adopt_seed and the fetch
// replay; that is valid only because none of them inserts or erases a
// record (the replay's own lookups find the same, present object), and
// any new code on that path must keep it so. install_map erases dead
// records after its pass, never during it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/object_table.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "persist/durable.h"
#include "store/batching.h"
#include "store/shard_map.h"

namespace fastreg::store {

class server final : public automaton {
 public:
  server(std::shared_ptr<const shard_map> shards, std::uint32_t index);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  void on_batch(netout& net, const process_id& from,
                std::span<const message> msgs) override;
  [[nodiscard]] process_id self() const override { return server_id(index_); }

  // ---------------------------------------------------------- reconfig --
  // Reconfiguration surface; call between the automaton's steps (a
  // store::deployment visit or step).

  /// Moves to the next epoch's map (epoch must advance by exactly one).
  /// Must not be called while a previous reconfiguration is still
  /// draining -- the coordinator serializes reconfigurations.
  /// `force_move`: objects to set aside and fence even though their
  /// protocol does not change -- the coordinator passes the fleet-wide
  /// union of unseeded_moved_objects(), so state a server missed the
  /// previous generation's quorum seed for is re-handed-off (re-fenced,
  /// re-read from a quorum, re-seeded) instead of silently regressing.
  void install_map(std::shared_ptr<const shard_map> next,
                   const std::unordered_set<object_id>& force_move = {});

  [[nodiscard]] epoch_t epoch() const { return map_->epoch(); }
  /// Objects seeded since the last install (diagnostic).
  [[nodiscard]] std::size_t seeded_count() const;

  /// Distinct objects this server hosts in the current generation
  /// (diagnostic).
  [[nodiscard]] std::size_t objects_hosted() const;
  /// The object's current-generation replica; nullptr when there is none
  /// (diagnostic).
  [[nodiscard]] const automaton* replica(object_id obj) const;

  /// The server's object index: every object it hosts, current AND
  /// previous generation. The reconfiguration coordinator unions these
  /// across a quorum of servers to discover the live key set (every
  /// completed write created instances on a quorum, so a quorum of
  /// indexes covers it); queried right after install_map, when no new
  /// moved instance can be born until its seed lands.
  [[nodiscard]] std::vector<object_id> list_objects() const;

  /// Moved objects whose superseded state is still set aside but whose
  /// new-generation seed never arrived here (this server missed the
  /// quorum seed). Reported to the coordinator before the NEXT install
  /// so it can force-move them; see install_map.
  [[nodiscard]] std::vector<object_id> unseeded_moved_objects() const;

  // ------------------------------------------------------------- persist --
  /// The durability engine when map_->config().persist is enabled, null
  /// otherwise. Construction replayed snapshot + log tail and, when the
  /// recovered epoch matched the map's, re-installed every recovered
  /// object (the rejoin path); a mismatch discarded the state (the fleet
  /// reconfigured while this server was down -- it re-bootstraps through
  /// the lazy seed-fetch path like a brand-new server).
  [[nodiscard]] persist::server_durability* durable() {
    return durable_.get();
  }
  /// Objects re-installed from disk at construction (diagnostic).
  [[nodiscard]] std::size_t recovered_objects() const {
    return recovered_objects_;
  }

 private:
  /// One replica of one object: the automaton and its seedable face
  /// (every hosted protocol's replica is seedable; checked at creation).
  struct instance {
    std::unique_ptr<automaton> a{};
    seedable* s{nullptr};
  };

  /// A lazy seed fetch in flight for one moved, un-seeded object.
  struct fetch_state {
    /// Client data messages held back until the fetch resolves; a full
    /// buffer nacks the overflow (the client parks and is resumed by
    /// the object's migration).
    std::vector<std::pair<process_id, message>> waiting{};
    /// Server-to-server gossip held back likewise, in its own smaller
    /// buffer so a gossip-chatty protocol cannot starve client data of
    /// buffer space; overflow is dropped (gossip is max-merging and
    /// self-healing, and a nack would mean nothing to a server).
    std::vector<std::pair<process_id, message>> gossip_waiting{};
    /// Peers that answered without a seed (k_fetch_seeded clear).
    server_set answered{};
    /// Some answering peer still hosts previous-generation state.
    bool any_prev{false};
    /// Enough peers answered and the handoff is in flight: stop
    /// counting, keep buffering, and wait for a peer's seed
    /// notification (we are subscribed everywhere we asked).
    bool dormant{false};
  };

  /// What the current generation's reshard added for one object.
  struct handoff_block {
    /// Superseded instance of a moved object, kept for migration state
    /// reads (and for old-generation gossip stragglers) until the next
    /// install.
    instance prev{};
    /// Set aside by coordinator fiat (its protocol did not change); it
    /// fences and migrates like a moved object.
    bool force_moved{false};
    /// Original seed snapshot -- present once the object's drain is over
    /// (seeded-ness IS presence), kept for the generation so this server
    /// can answer peers' lazy fetches with exactly what the coordinator
    /// installed (a live instance's CURRENT state may include
    /// not-yet-established later writes, which must not be seeded).
    std::optional<register_snapshot> seed{};
    /// The lazy fetch in flight, if any.
    std::optional<fetch_state> fetch{};
    /// Peers whose fetch_req this server answered without a seed; they
    /// get an unsolicited seeded fetch_ack the moment one is adopted.
    server_set subs{};
  };

  /// Everything this server holds for one object. A record left with
  /// neither a replica nor a block is dropped at the next install.
  struct object_state {
    /// Current-generation replica; null until traffic or a seed creates
    /// it (and while a moved object waits for its seed).
    instance cur{};
    /// Last wts persisted; an op record is appended only when serving a
    /// message advanced past it.
    wts_t persisted{};
    /// Null unless this generation's reshard touched the object.
    std::unique_ptr<handoff_block> handoff{};

    [[nodiscard]] handoff_block& block() {
      if (!handoff) handoff = std::make_unique<handoff_block>();
      return *handoff;
    }
    [[nodiscard]] bool seeded() const { return handoff && handoff->seed; }
  };

  /// The record's current replica, created on first use.
  instance& live(object_id obj, object_state& r);
  /// True when `obj`'s state moved generations at the last install.
  [[nodiscard]] bool moved(object_id obj, const object_state& r) const;
  void handle_one(const process_id& from, const message& m);
  void handle_state_req(const process_id& from, const message& m,
                        const object_state& r);
  void handle_seed_req(const process_id& from, const message& m,
                       object_state& r);
  void handle_fetch_req(const process_id& from, const message& m,
                        object_state& r);
  void handle_fetch_ack(const process_id& from, const message& m,
                        object_state& r);
  /// Installs `snap` as the seeded new-generation state of `cause`'s
  /// object (idempotent) and pushes seeded fetch_acks, under `cause`'s
  /// trace and span, to the object's fetch subscribers. `cause` is the
  /// seed_req or fetch_ack that seeded it.
  void adopt_seed(const message& cause, object_state& r,
                  const register_snapshot& snap);
  /// Buffers a data message for a moved, un-seeded object and starts (or
  /// joins) the object's lazy seed fetch, whose fetch_reqs carry the
  /// message's trace and span.
  void enqueue_fetch(const process_id& from, const message& m,
                     object_state& r);
  /// Replays what a now-seeded fetch buffered.
  void finish_fetch(object_state& r);
  void send_nack(const process_id& to, const message& m);
  /// Appends an op record when serving a message advanced obj's durable
  /// timestamp (protocol-agnostic: compares peek_state() against the last
  /// persisted wts). No-op without durability.
  void maybe_persist(object_id obj, object_state& r);
  /// Writes a full-state snapshot (and truncates the log) when one is due.
  void maybe_snapshot();
  /// Construction-time recovery: installs the replayed state if its epoch
  /// matches the current map, discards it otherwise.
  void recover_from_disk();

  std::shared_ptr<const shard_map> map_;
  /// Map of the previous epoch; null until the first install.
  std::shared_ptr<const shard_map> prev_map_;
  std::uint32_t index_;
  object_table<object_state> objects_;
  batch_collector outbox_;
  /// Durability engine; null when persistence is off.
  std::unique_ptr<persist::server_durability> durable_;
  std::size_t recovered_objects_{0};

  /// Registry handles (per-server label), resolved in the constructor.
  /// These rows are the only copy of the counts they hold; every server
  /// with this index in the process (a restarted one included) shares
  /// them, so a row sums all their activity.
  /// fetch_overflow counts client data nacked because a lazy fetch's
  /// buffer was full: such a client is only resumed by the object's NEXT
  /// migration, so a nonzero row is an alarm (also logged at warn level).
  struct srv_metrics {
    obs::counter* ops{nullptr};
    obs::counter* fetch_overflow{nullptr};
    obs::histogram* serve_ns{nullptr};
  };
  srv_metrics sm_;
  /// Flight recorder for this node (stable global, cached like sm_).
  obs::recorder* rec_{nullptr};
};

}  // namespace fastreg::store
