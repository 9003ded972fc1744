// The store's ONE pipelined async front-end, transport-agnostic: a
// sliding-window session per client that keeps up to `depth` operations
// in flight, backed by either the deterministic simulator (sim_store /
// sim::world) or the real-socket deployment (net::cluster / net::node).
//
// It is the store's one client path: stress harnesses, benches, tests
// and examples submit ops the same way on both transports.
// submit_and_drain (below) is the one blocking convenience on top of it.
//
// One way to learn that an op completed, on both transports: a session
// installs a step hook on its client's process (sim::world or
// net::node::set_step_hook) that runs at the end of every step of that
// client. The hook takes the step's completions and closes their op_log
// entries at the step's time, so a response is recorded at the step that
// delivered it, however the step was driven (a schedule, a manual
// world().deliver, a reactor). op_log is the store's only history
// recorder.
//
// Surface:
//  * try_get/try_put -- one admission attempt, never blocks: `submitted`
//    once the op is accepted into the window, `window_full` when `depth`
//    ops are already in flight, `key_busy` when the session already has
//    an op in flight on the key (per-object well-formedness), `failed`
//    when the transport is down.
//  * get/put -- blocking submit: waits for admission (window slot + key
//    free), returns once the op is admitted. False on timeout.
//  * pump() -- makes progress without submitting: issues anything
//    buffered and harvests completions into the results stash.
//  * drain() -- waits until nothing submitted remains in flight.
//  * take_results() -- completion-ordered results since the last call.
//
// Threading: one session per client index at a time (submit_and_drain
// opens one too), driven from one thread. Different sessions may live on
// different threads; on TCP every client is an actor of the cluster's one
// client node, whose reactor pool multiplexes all their connections. A
// TCP session's step (reactor side) and harvest (session side) work in
// buffers the session keeps, so neither allocates a list per call.
//
// Giving up: an op still in flight when its session closes (a drain
// timed out) is abandoned, not cancelled. The client's next session
// waits for it before beginning an op on the same key, and the abandoned
// op's late completion only closes its op_log entry.
//
// Admission outcomes are counted in the process registry
// (fastreg_store_admission_total{result=...}) so a snapshot shows how
// often the window or a busy key pushed back.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/object_table.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "store/client.h"
#include "store/histories.h"

namespace fastreg::net {
class cluster;
class node;
}  // namespace fastreg::net

namespace fastreg::store {

class sim_store;

/// Outcome of one non-blocking admission attempt.
enum class submit_status : std::uint8_t {
  submitted = 0,
  /// `depth` ops already in flight on this session.
  window_full = 1,
  /// The same (client, key) already has an op in flight.
  key_busy = 2,
  /// Transport failure (e.g. the node is stopped).
  failed = 3,
};

/// The store's one history recorder, shared by every session of a
/// deployment on either transport: a session opens an entry in the step
/// that begins an op and closes it in the step that takes its completion,
/// straight into the per-key histories. Times are the transport's:
/// simulator ticks (world::now) or steady-clock nanoseconds taken on the
/// client's reactor, so same-key precedence is preserved (see
/// tcp_session::step). Thread-safe.
class op_log {
 public:
  /// Records an op of `client` on `key` (object id `obj`) invoked at t0
  /// and traced as `trace`, still open. A client begins an op on a key
  /// only after its previous one there was closed, so it has at most one
  /// open op per key.
  void open(const process_id& client, const std::string& key, object_id obj,
            bool is_put, value_t v, std::uint64_t t0, std::uint64_t trace);

  /// Closes the open op of each result's (client, object) at t1. A
  /// session that opened it, or the client's next one, closes it; results
  /// with no open op are ignored.
  void close(const process_id& client,
             const std::vector<store_result>& results, std::uint64_t t1);

  /// A copy of the per-key histories, taken under the lock (safe while
  /// TCP sessions run), each key's ops in invocation-time order.
  [[nodiscard]] store_histories gather() const;

  /// The live per-key histories, neither copied nor locked: for
  /// single-threaded drivers (the simulator), which append in time order.
  [[nodiscard]] const store_histories& histories() const { return hist_; }

 private:
  mutable std::mutex mu_;
  store_histories hist_;
  /// Each key's history in hist_ (map nodes never move), by object id:
  /// an integer lookup on the reactor instead of a walk down the ordered
  /// map.
  object_table<checker::history*> by_obj_;
};

/// One client's pipelined session (see file comment for the surface and
/// threading contract). Obtained from a store_frontend.
class async_session {
 public:
  virtual ~async_session() = default;

  async_session(const async_session&) = delete;
  async_session& operator=(const async_session&) = delete;

  /// Blocking submits: wait for admission, return once the op is
  /// admitted. False on timeout (the op was NOT submitted).
  [[nodiscard]] bool get(
      const std::string& key,
      std::chrono::milliseconds timeout = std::chrono::seconds(10));
  [[nodiscard]] bool put(
      const std::string& key, value_t v,
      std::chrono::milliseconds timeout = std::chrono::seconds(10));

  /// Non-blocking admission attempts. A sim session buffers accepted ops
  /// until the next pump() so they leave in ONE invocation step (batched
  /// envelopes). A TCP session queues them for the client actor's next
  /// reactor step, which begins them all -- each behind any op an earlier
  /// session abandoned on its key -- in one batch frame per server.
  [[nodiscard]] submit_status try_get(const std::string& key);
  [[nodiscard]] submit_status try_put(const std::string& key, value_t v);

  /// Issues anything buffered and harvests completions into the results
  /// stash. Never blocks (on the sim it does not step the world; the
  /// driver owns the schedule).
  virtual void pump() = 0;

  /// Waits until nothing submitted remains in flight and harvests the
  /// final completions. False on timeout (ops may still be in flight).
  [[nodiscard]] virtual bool drain(
      std::chrono::milliseconds timeout = std::chrono::seconds(10)) = 0;

  /// Harvested completions of this session's ops since the last call,
  /// completion-ordered. (A late completion of an op an earlier session
  /// abandoned only closes that op's log entry.)
  [[nodiscard]] std::vector<store_result> take_results() {
    return std::exchange(results_, {});
  }

  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  /// Ops submitted through this session and not yet harvested (buffered
  /// ones included).
  [[nodiscard]] std::uint64_t in_flight() const {
    return submitted_ >= harvested_ ? submitted_ - harvested_ : 0;
  }
  [[nodiscard]] std::uint32_t depth() const { return depth_; }

 protected:
  async_session(process_id client, std::uint32_t depth, op_log& log);

  /// One admission attempt (never blocks).
  [[nodiscard]] virtual submit_status try_submit(const std::string& key,
                                                 bool is_put, value_t v) = 0;
  /// Blocking admission (waits for a slot / key, then submits).
  [[nodiscard]] virtual bool blocking_submit(
      const std::string& key, bool is_put, value_t v,
      std::chrono::milliseconds timeout) = 0;

  /// An admitted op with its key's object id, computed once at admission.
  struct admitted_op {
    store_op op;
    object_id obj{k_default_object};
  };

  /// Moves harvested completions out of `done` into the results stash and
  /// advances the in-flight accounting.
  void stash(std::vector<store_result>& done);

  // The step hook's two halves, shared by both transports; called only
  // where no step of the client can run concurrently (inside its steps,
  // or between steps on the simulator).
  /// Takes c's completions and closes their op_log entries at the step's
  /// time t1. Drops the completions of ops this session did not begin
  /// (an earlier session abandoned them; nobody waits for them) and
  /// returns the rest, for the caller to stash, in a scratch vector that
  /// the next call reuses.
  std::vector<store_result>& complete(client& c, std::uint64_t t1);
  /// Begins a on c and opens its op_log entry at t0 under the trace id
  /// c minted.
  void begin(client& c, admitted_op a, std::uint64_t t0);

  process_id client_;
  std::uint32_t depth_;
  std::uint64_t submitted_{0};
  std::uint64_t harvested_{0};
  std::vector<store_result> results_;
  op_log& log_;
  /// Objects of this session's begun, not yet completed ops (step side).
  object_table<std::monostate> begun_;
  /// complete()'s output (step side).
  std::vector<store_result> done_;

 private:
  void count(submit_status st);

  /// Admission counters, one per outcome (registry handles, fetched at
  /// construction on the driver thread).
  obs::counter* adm_[4] = {nullptr, nullptr, nullptr, nullptr};
};

/// A deployment that can hand out pipelined sessions and gather the
/// per-key histories of everything they did.
class store_frontend {
 public:
  virtual ~store_frontend() = default;

  /// Opens the pipelined session for client `client` with a window of
  /// `depth` ops. One live session per client index (see the threading
  /// contract above).
  [[nodiscard]] virtual std::unique_ptr<async_session> open_session(
      const process_id& client, std::uint32_t depth) = 0;

  /// Per-key histories of everything the deployment's sessions did (see
  /// op_log::gather).
  [[nodiscard]] store_histories gather() const { return log_.gather(); }

 protected:
  explicit store_frontend(op_log& log) : log_(log) {}

  op_log& log_;
};

/// TCP backend: sessions submit through the cluster's client node (at
/// cluster::client_actor) and log into the deployment's shared op_log.
class tcp_frontend final : public store_frontend {
 public:
  tcp_frontend(net::cluster& cluster, op_log& log)
      : store_frontend(log), cluster_(cluster) {}

  [[nodiscard]] std::unique_ptr<async_session> open_session(
      const process_id& client, std::uint32_t depth) override;

 private:
  net::cluster& cluster_;
};

/// Simulator backend: sessions buffer admissions and issue them in ONE
/// world::invoke_step per pump() (batched envelopes, the sim equivalent
/// of a wire flush), and log into the sim_store's op_log through their
/// world step hooks. The driver still owns the schedule: sessions never
/// step the world except inside blocking_submit/drain, which use the
/// frontend's rng to run the world until admission/completion.
class sim_frontend final : public store_frontend {
 public:
  /// `r` drives world steps for the blocking calls; it aliases the
  /// driver's rng so blocking and scripted schedules interleave
  /// deterministically.
  sim_frontend(sim_store& s, rng& r);

  [[nodiscard]] std::unique_ptr<async_session> open_session(
      const process_id& client, std::uint32_t depth) override;

 private:
  sim_store& s_;
  rng& r_;
};

/// The store's blocking convenience, on either transport: opens a session
/// for `client` with a window of ops.size(), submits every op before
/// draining (so they share batches on the wire), drains, and returns the
/// completion-ordered results. nullopt when an op is not admitted (two
/// ops on one key, or the transport is down) or the drain times out; ops
/// still in flight then are abandoned (see the file comment).
[[nodiscard]] std::optional<std::vector<store_result>> submit_and_drain(
    store_frontend& fe, const process_id& client,
    std::span<const store_op> ops,
    std::chrono::milliseconds timeout = std::chrono::seconds(10));

}  // namespace fastreg::store
