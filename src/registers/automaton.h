// The protocol automaton model, mirroring the paper's Section 2.2.
//
// A distributed algorithm is a collection of automata, one per process.
// Computation proceeds in steps <p, M>: process p atomically consumes a set
// of messages M, updates its state, and emits a set of messages. Both
// transports deliver every step as one on_batch call carrying the message
// list of one send (a list of one for a plain send). The base on_batch
// unrolls the step into one on_message call per message, which is
// equivalent for the register protocols since none of them react to
// message *sets* atomically; the store's multiplexing automata override
// on_batch to coalesce the replies a step triggers.
//
// Automata are transport-agnostic: the same objects run on the in-memory
// simulator (src/sim) and on TCP (src/net). They are deterministic, so the
// adversary harness never copies one: each of the indistinguishable
// sibling runs the lower-bound proofs compare is replayed from a fresh
// world (src/adversary).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/server_set.h"
#include "registers/config.h"
#include "registers/message.h"

namespace fastreg {

/// What an automaton is allowed to do during a step: send messages.
/// The transport behind it decides when (and whether) they are delivered.
class netout {
 public:
  virtual ~netout() = default;
  virtual void send(const process_id& to, message m) = 0;

  /// Sends several messages to one destination as a single transport unit
  /// (one envelope on the simulator, one frame on TCP). `msgs` is a buffer
  /// the caller keeps and reuses: the call takes its messages and leaves
  /// it empty, never freed, so the next batch fills it without a heap
  /// allocation. (The simulator hands back a spare vector in its place;
  /// TCP encodes the messages and clears it.) The default keeps
  /// transports that do not batch correct: it degrades to per-message
  /// sends. Only the store's multiplexing automata call this.
  virtual void send_batch(const process_id& to, std::vector<message>& msgs) {
    for (auto& m : msgs) send(to, std::move(m));
    msgs.clear();
  }

  /// Sends `m` to servers 0..servers-1 in index order, skipping `except`
  /// (a server broadcasting to its peers): one round's request. The
  /// default is one send per target, the last taking `m` by move, so a
  /// broadcast makes one copy fewer than it has targets. The store's
  /// tagging_netout parks `m` once instead, and its flush lends it to
  /// every target (store/batching.h).
  virtual void broadcast(std::uint32_t servers, message m,
                         std::uint32_t except = ~0u) {
    std::uint32_t last = servers;  // one past the last target
    if (last > 0 && last - 1 == except) --last;
    if (last == 0) return;
    for (std::uint32_t i = 0; i + 1 < last; ++i) {
      if (i != except) send(server_id(i), m);
    }
    send(server_id(last - 1), std::move(m));
  }

  /// True when the transport encodes a borrowed list in place
  /// (send_borrowed), so a message shared by several destinations need
  /// not be copied for each. TCP borrows; the simulator keeps every
  /// envelope's messages and takes owned lists (send_batch).
  [[nodiscard]] virtual bool borrows() const { return false; }

  /// Sends the messages `msgs` points at, in order, to one destination as
  /// a single transport unit, without taking them: they stay the
  /// caller's, and the transport is done with them when this returns.
  /// Called only when borrows(); the default copies them into one
  /// send_batch.
  virtual void send_borrowed(const process_id& to, message_refs msgs) {
    std::vector<message> owned;
    owned.reserve(msgs.size());
    for (const message* m : msgs) owned.push_back(*m);
    send_batch(to, owned);
  }
};

/// Base automaton: a deterministic state machine driven by messages.
class automaton {
 public:
  virtual ~automaton() = default;

  /// Deliver one message of a step (see on_batch).
  virtual void on_message(netout& net, const process_id& from,
                          const message& m) = 0;

  /// Deliver one transport unit (a sim envelope, a TCP frame) as ONE step
  /// <p, M>; the only entry point the transports call. The default
  /// unrolls to per-message on_message calls, which is equivalent for the
  /// register protocols (none react to message *sets* atomically). The
  /// store's automata override it to coalesce the replies the step
  /// triggers.
  virtual void on_batch(netout& net, const process_id& from,
                        std::span<const message> msgs) {
    for (const auto& m : msgs) on_message(net, from, m);
  }

  [[nodiscard]] virtual process_id self() const = 0;
};

/// A protocol-agnostic snapshot of one register replica's durable state:
/// the largest adopted (ts, wid) with its value tags and (Byzantine model)
/// the writer's signature over them. The store's live-reconfiguration
/// handoff reads this out of a superseded server instance (peek) and
/// installs it into the replacement instance (seed); see src/reconfig.
struct register_snapshot {
  ts_t ts{k_initial_ts};
  std::int32_t wid{0};
  value_t val{};
  value_t prev{};
  std::vector<std::uint8_t> sig{};

  [[nodiscard]] wts_t wts() const { return wts_t{ts, wid}; }

  friend bool operator==(const register_snapshot&,
                         const register_snapshot&) = default;
};

/// Server automata that can export and import their register state for
/// online key migration. Seeding marks the state as established at every
/// client (full seen set where applicable): the migration coordinator only
/// seeds values it has read from a quorum of the old generation, so
/// serving them on the fast path is safe.
class seedable {
 public:
  virtual ~seedable() = default;
  [[nodiscard]] virtual register_snapshot peek_state() const = 0;
  virtual void seed_state(const register_snapshot& s) = 0;
};

[[nodiscard]] inline seedable* as_seedable(automaton* a) {
  return dynamic_cast<seedable*>(a);
}

/// Result of a completed read, as observed by the invoking client.
struct read_result {
  ts_t ts{k_initial_ts};
  std::int32_t wid{0};
  value_t val{};
  /// Communication round-trips this operation used (1 == fast).
  int rounds{0};
};

/// Client-side interface of a reader automaton. Invocations follow the
/// paper's well-formedness rule: at most one outstanding op per client.
class reader_iface {
 public:
  virtual ~reader_iface() = default;

  /// Begin a read. Precondition: !read_in_progress().
  virtual void invoke_read(netout& net) = 0;

  [[nodiscard]] virtual bool read_in_progress() const = 0;

  /// Result of the most recently completed read, if any read completed.
  [[nodiscard]] virtual const std::optional<read_result>& last_read()
      const = 0;

  [[nodiscard]] virtual std::uint64_t reads_completed() const = 0;
};

/// Client-side interface of a writer automaton.
class writer_iface {
 public:
  virtual ~writer_iface() = default;

  /// Begin a write. Precondition: !write_in_progress().
  virtual void invoke_write(netout& net, value_t v) = 0;

  [[nodiscard]] virtual bool write_in_progress() const = 0;

  [[nodiscard]] virtual std::uint64_t writes_completed() const = 0;

  /// Rounds used by the most recently completed write (1 == fast).
  [[nodiscard]] virtual int last_write_rounds() const = 0;

  /// Prepares a freshly constructed writer to take over a register whose
  /// replicas already store `migrated` (installed by a migration handoff):
  /// the next write must carry a timestamp above migrated.ts, and fast
  /// protocols must advertise migrated.val as the preceding write's value.
  /// A writer that discovers the current timestamp by querying may
  /// ignore it. Must not be called while a write is in progress.
  virtual void seed_writer(const register_snapshot& migrated) {
    (void)migrated;
  }
};

/// A full protocol instantiation: factory for the three automaton roles.
/// One implementation serves every row of the protocol table
/// (registers/registry.h looks rows up by name); the store's
/// store_protocol is the other.
class protocol {
 public:
  virtual ~protocol() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Does theory predict fast ops for this protocol under `cfg`?
  [[nodiscard]] virtual bool feasible(const system_config& cfg) const = 0;

  /// True when distinct writer automata may safely coexist (the MWMR
  /// family). Single-writer protocols hardwire writer 0; deployments
  /// (e.g. the store) use this to reject W > 1 for them.
  [[nodiscard]] virtual bool multi_writer() const { return false; }

  /// Rounds per op when the protocol is used within its feasible region.
  [[nodiscard]] virtual int read_rounds() const = 0;
  [[nodiscard]] virtual int write_rounds() const = 0;

  /// `obj` is the register object the automaton will serve. Only protocols
  /// whose wire payloads are bound to the object (fast_bft signs it) read
  /// it; single-register deployments pass k_default_object.
  [[nodiscard]] virtual std::unique_ptr<automaton> make_writer(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const = 0;
  [[nodiscard]] virtual std::unique_ptr<automaton> make_reader(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const = 0;
  [[nodiscard]] virtual std::unique_ptr<automaton> make_server(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const = 0;
};

/// Cross-casts an automaton to its client interface; nullptr when the
/// automaton is not of that role.
[[nodiscard]] inline reader_iface* as_reader(automaton* a) {
  return dynamic_cast<reader_iface*>(a);
}
[[nodiscard]] inline writer_iface* as_writer(automaton* a) {
  return dynamic_cast<writer_iface*>(a);
}

}  // namespace fastreg
