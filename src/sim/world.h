// The paper's system model (Section 2.2) as an executable, deterministic
// discrete-event simulator.
//
//   "The state of communication channels is viewed as a set of messages
//    mset containing messages that are sent but not yet received. ...
//    Computation proceeds in steps <p, M>: p removes M from mset, applies
//    M and its current state to A_p, adopts the new state and puts the
//    output messages in mset."
//
// `world` holds the automata and the global mset. Three ways to drive it:
//
//  1. Manual delivery (the adversary): deliver(id) / deliver_matching(...)
//     executes a single step and leaves everything else in transit. This
//     is exactly the partial-run surgery the lower-bound proofs perform.
//  2. Random schedule: run_random() repeatedly delivers a uniformly random
//     in-transit message -- an aggressive asynchrony stress.
//  3. Timed schedule: run_timed() assigns each message a latency from a
//     delay model and delivers in timestamp order -- used for latency
//     benches (E1, E3, E8...).
//
// Failure injection: crash(p) silences a process; crash_after_sends(p, k)
// makes p's NEXT send burst stop after k messages and then crashes it
// (the paper's "may crash after sending messages to an arbitrary subset").
// Byzantine behaviours are injected by replacing a server's automaton
// (see adversary/byzantine.h).
//
// world is deep-copyable via fork(): the adversary uses this to branch a
// partial run into the indistinguishable siblings the proofs compare.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "checker/history.h"
#include "common/check.h"
#include "common/rng.h"
#include "obs/recorder.h"
#include "registers/automaton.h"

namespace fastreg::sim {

/// A message in transit (an element of the paper's mset). A batched send
/// (netout::send_batch) travels as ONE envelope: `msg` holds the first
/// message and `tail` the rest, so the whole batch costs a single latency
/// sample and a single delivery step -- the simulator's model of the
/// per-packet overhead batching amortizes. Register protocols never
/// batch, so adversary code matching on `msg` is unaffected.
struct envelope {
  std::uint64_t id{0};
  process_id from{};
  process_id to{};
  message msg{};
  std::vector<message> tail{};
  /// Logical time the message was sent.
  std::uint64_t sent_at{0};
  /// Delivery due time; assigned by run_timed, ignored by other drivers.
  std::uint64_t due_at{0};

  [[nodiscard]] std::size_t message_count() const { return 1 + tail.size(); }
};

/// Per-message latency model for run_timed.
class delay_model {
 public:
  virtual ~delay_model() = default;
  virtual std::uint64_t sample(rng& r, const process_id& from,
                               const process_id& to) = 0;
};

/// Uniform latency in [lo, hi] time units. Degenerate ranges are caught at
/// construction: lo > hi would otherwise wrap hi - lo + 1 and sample from
/// almost the whole uint64 range. lo == hi is valid (constant delay).
class uniform_delay final : public delay_model {
 public:
  uniform_delay(std::uint64_t lo, std::uint64_t hi) : lo_(lo), hi_(hi) {
    FASTREG_EXPECTS(lo <= hi);
  }
  std::uint64_t sample(rng& r, const process_id&, const process_id&) override {
    return lo_ + r.below(hi_ - lo_ + 1);
  }

 private:
  std::uint64_t lo_;
  std::uint64_t hi_;
};

class world final : public netout {
 public:
  explicit world(system_config cfg);

  world(const world&) = delete;
  world& operator=(const world&) = delete;
  world(world&&) = default;
  world& operator=(world&&) = default;

  /// Instantiates writer(s), readers and servers from a protocol.
  void install(const protocol& proto);

  /// Swaps in a replacement automaton (Byzantine injection, memory loss).
  void replace_automaton(const process_id& p, std::unique_ptr<automaton> a);

  // ------------------------------------------------------------ queries --
  [[nodiscard]] const system_config& config() const { return cfg_; }
  [[nodiscard]] automaton* get(const process_id& p);
  [[nodiscard]] reader_iface* reader(std::uint32_t i);
  [[nodiscard]] writer_iface* writer(std::uint32_t i = 0);
  [[nodiscard]] const std::deque<envelope>& in_transit() const {
    return mset_;
  }
  [[nodiscard]] std::uint64_t now() const { return now_; }
  [[nodiscard]] bool crashed(const process_id& p) const {
    return crashed_.contains(p);
  }
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_count_; }
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return delivered_count_;
  }
  /// Transport units put in flight: a batched send counts once here but
  /// message_count() times in messages_sent(). The gap is the batching win.
  [[nodiscard]] std::uint64_t envelopes_sent() const {
    return envelopes_sent_;
  }

  // -------------------------------------------------------- invocations --
  /// Invokes a read on reader i; records the invocation in the history.
  void invoke_read(std::uint32_t reader_index);
  /// Invokes a write; single-writer convenience uses writer 0.
  void invoke_write(value_t v) { invoke_write(0, std::move(v)); }
  void invoke_write(std::uint32_t writer_index, value_t v);

  [[nodiscard]] bool client_busy(const process_id& p);
  /// Result of reader i's most recent completed read.
  [[nodiscard]] std::optional<read_result> last_read(std::uint32_t reader_index);

  /// Runs `fn` as a locally-triggered step of process p (a client
  /// invocation that is not a register read/write -- e.g. the store
  /// front-end's get/put) and flushes p's sends into mset. Callers manage
  /// their own histories; completions reach them through p's step hook.
  void invoke_step(const process_id& p,
                   const std::function<void(netout&)>& fn);

  using step_fn = std::function<void(automaton&, netout&)>;
  /// Installs `hook` (empty = clear) to run at the end of every step of p
  /// -- each delivery and each invocation, before the step's sends are
  /// flushed -- the simulator's net::node::set_step_hook: how a store
  /// session learns, at the step that completed them, which of its ops
  /// completed. fork() does not copy hooks.
  void set_step_hook(const process_id& p, step_fn hook);

  // ----------------------------------------------------- manual driving --
  /// Executes step <to, {m}> for the envelope with this id. Returns false
  /// if the id is no longer in transit. Delivery to a crashed process
  /// consumes the message without a step.
  bool deliver(std::uint64_t envelope_id);

  using envelope_pred = std::function<bool(const envelope&)>;
  /// Delivers every currently-in-transit envelope matching the predicate
  /// (snapshot semantics: messages sent *during* these deliveries are not
  /// delivered). Returns the number delivered.
  std::size_t deliver_matching(const envelope_pred& pred);
  [[nodiscard]] std::vector<std::uint64_t> find_envelopes(
      const envelope_pred& pred) const;

  /// Drops matching envelopes (they are lost forever; used to model the
  /// loss of messages addressed to crashed processes).
  std::size_t drop_matching(const envelope_pred& pred);

  // ----------------------------------------------------- bulk schedules --
  /// Delivers uniformly random messages until mset is empty or max_steps.
  /// Returns the number of steps executed.
  std::uint64_t run_random(rng& r, std::uint64_t max_steps = 1'000'000);
  /// Runs until `done` returns true (checked after every step), mset is
  /// empty, or max_steps. Random order.
  std::uint64_t run_random_until(rng& r, const std::function<bool()>& done,
                                 std::uint64_t max_steps = 1'000'000);
  /// Delivers messages in due-time order; each newly sent message gets a
  /// latency from the model. Simulated clock advances to each due time.
  std::uint64_t run_timed(rng& r, delay_model& delays,
                          std::uint64_t max_steps = 1'000'000);
  std::uint64_t run_timed_until(rng& r, delay_model& delays,
                                const std::function<bool()>& done,
                                std::uint64_t max_steps = 1'000'000);

  // ---------------------------------------------------------- failures --
  void crash(const process_id& p);
  /// Arms a partial-broadcast crash: during p's next send burst only the
  /// first `deliver_first` messages reach mset, then p crashes.
  void crash_after_sends(const process_id& p, std::size_t deliver_first);
  /// Un-crashes p and swaps in `a` as its automaton -- the crash model's
  /// "restart": the replacement starts from whatever state its
  /// constructor rebuilt (empty, or replayed from persistent storage --
  /// see src/persist). Messages sent to p while it was crashed were
  /// consumed, exactly what a rebooted process never receiving them
  /// looks like.
  void restart(const process_id& p, std::unique_ptr<automaton> a);

  // --------------------------------------------------------- partitions --
  // Link-level partitions, the asynchronous model's "messages between a
  // and b are delayed indefinitely": envelopes on a blocked link STAY in
  // transit (never lost) and the bulk schedules skip them; heal makes
  // them deliverable again, modeling the post-partition flush. Manual
  // deliver()/deliver_matching() ignore partitions on purpose -- the
  // adversary IS the network and may thread messages however it likes.

  /// Blocks the link between a and b in both directions.
  void partition(const process_id& a, const process_id& b);
  /// Unblocks the link between a and b.
  void heal(const process_id& a, const process_id& b);
  [[nodiscard]] bool link_blocked(const process_id& a,
                                  const process_id& b) const;
  [[nodiscard]] std::size_t blocked_links() const { return blocked_.size(); }

  // ------------------------------------------------------------ history --
  [[nodiscard]] const checker::history& hist() const { return history_; }

  /// Deep copy: clones all automata and the in-transit set.
  [[nodiscard]] world fork() const;

  // netout (valid only inside a step; automata receive *this).
  void send(const process_id& to, message m) override;
  void send_batch(const process_id& to, std::vector<message> msgs) override;

 private:
  struct client_state {
    bool pending{false};
    std::size_t op_index{0};
    std::uint64_t completed_before{0};
  };

  void do_step(const process_id& to, const envelope& env);
  /// Ends p's step: runs its hook, then flushes its sends into mset.
  void end_step(const process_id& p);
  void poll_completion(const process_id& p);
  void flush_sends(const process_id& from);
  [[nodiscard]] std::size_t index_of(const process_id& p) const;
  /// Cached obs::recorder_for lookup (the recorders are process-global
  /// and outlive every world; the cache only avoids the registry lock).
  /// Deliberately not copied by fork(): it rebuilds lazily.
  [[nodiscard]] obs::recorder& rec_for(const process_id& p);

  system_config cfg_;
  std::vector<std::unique_ptr<automaton>> procs_;  // writers, readers, servers
  std::deque<envelope> mset_;
  std::uint64_t next_envelope_id_{1};
  std::uint64_t now_{0};
  std::unordered_set<process_id> crashed_;
  /// Blocked links as order-normalized endpoint pairs (deterministic
  /// iteration keeps fork() and schedules reproducible).
  std::set<std::pair<process_id, process_id>> blocked_;
  std::unordered_map<process_id, std::size_t> armed_partial_crash_;
  std::unordered_map<process_id, client_state> clients_;
  /// Step hooks by process index (see set_step_hook); not forked.
  std::vector<step_fn> hooks_;
  checker::history history_;
  std::uint64_t sent_count_{0};
  std::uint64_t delivered_count_{0};
  std::uint64_t envelopes_sent_{0};

  // Sends captured during the current step, flushed into mset_ afterwards
  // (possibly truncated by an armed partial-broadcast crash). Each entry
  // becomes one envelope; only batched sends pay for a tail vector, so
  // the register protocols' single-message hot path stays allocation-free.
  struct outbox_entry {
    process_id to{};
    message first{};
    std::vector<message> tail{};
  };
  std::vector<outbox_entry> outbox_;
  std::unordered_map<process_id, obs::recorder*> rec_cache_;
};

}  // namespace fastreg::sim
