#include "store/async_client.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <iterator>

#include "common/check.h"
#include "common/clock.h"
#include "net/cluster.h"
#include "net/node.h"
#include "store/sim_store.h"

namespace fastreg::store {

// --------------------------------------------------------------- op_log --

void op_log::open(const process_id& client_pid, const std::string& key,
                  object_id obj, bool is_put, value_t v, std::uint64_t t0,
                  std::uint64_t trace) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto [h, fresh] = by_obj_.try_emplace(obj);
  if (fresh) *h = &hist_.for_key(key);
  (*h)->begin_op(client_pid, is_put, t0, std::move(v), trace);
}

void op_log::close(const process_id& client_pid,
                   const std::vector<store_result>& results,
                   std::uint64_t t1) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& r : results) {
    const auto found = by_obj_.find(r.obj);
    if (found == nullptr) continue;
    checker::history& h = **found;
    const auto i = h.open_op(client_pid);
    if (!i) continue;
    if (r.is_put) {
      h.complete_write(*i, t1, r.rounds);
    } else {
      h.complete_read(*i, t1, r.ts, r.wid, r.val, r.rounds);
    }
  }
}

store_histories op_log::gather() const {
  store_histories out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out = hist_;
  }
  // Each reactor stamps t0 before it takes the lock, so two clients' ops
  // on one key may have been recorded out of invocation order.
  for (const auto& [key, h] : out.all()) out.for_key(key).sort_by_invoke_time();
  return out;
}

// -------------------------------------------------------- async_session --

async_session::async_session(process_id client, std::uint32_t depth,
                             op_log& log)
    : client_(std::move(client)), depth_(depth), log_(log) {
  FASTREG_EXPECTS(depth >= 1);
  // Session construction happens on the driver thread, never inside a
  // reactor loop, so fetching (and on first use creating) the admission
  // series here is legal and the increments below stay lock-free.
  auto& reg = obs::registry::instance();
  adm_[0] = &reg.get_counter("fastreg_store_admission_total",
                             "result=\"submitted\"");
  adm_[1] = &reg.get_counter("fastreg_store_admission_total",
                             "result=\"window_full\"");
  adm_[2] = &reg.get_counter("fastreg_store_admission_total",
                             "result=\"key_busy\"");
  adm_[3] = &reg.get_counter("fastreg_store_admission_total",
                             "result=\"failed\"");
}

void async_session::count(submit_status st) {
  adm_[static_cast<std::size_t>(st)]->inc();
}

void async_session::stash(std::vector<store_result>& done) {
  if (done.empty()) return;
  harvested_ += done.size();
  results_.insert(results_.end(), std::make_move_iterator(done.begin()),
                  std::make_move_iterator(done.end()));
  done.clear();
}

std::vector<store_result>& async_session::complete(client& c,
                                                   std::uint64_t t1) {
  c.take_completions(done_);
  if (done_.empty()) return done_;
  log_.close(client_, done_, t1);
  std::erase_if(done_, [&](const store_result& r) {
    return !begun_.erase(r.obj);
  });
  return done_;
}

void async_session::begin(client& c, admitted_op a, std::uint64_t t0) {
  store_op& op = a.op;
  begun_.try_emplace(a.obj);
  // Nothing completes before the step's flush, so the log entry may
  // follow the begin. The client copies a put's value; the log keeps it.
  const std::uint64_t trace = op.is_put ? c.begin_put(op.key, a.obj, op.val)
                                        : c.begin_get(op.key, a.obj);
  log_.open(client_, op.key, a.obj, op.is_put, std::move(op.val), t0, trace);
}

bool async_session::get(const std::string& key,
                        std::chrono::milliseconds timeout) {
  if (!blocking_submit(key, /*is_put=*/false, value_t{}, timeout)) {
    count(submit_status::failed);
    return false;
  }
  ++submitted_;
  count(submit_status::submitted);
  return true;
}

bool async_session::put(const std::string& key, value_t v,
                        std::chrono::milliseconds timeout) {
  if (!blocking_submit(key, /*is_put=*/true, std::move(v), timeout)) {
    count(submit_status::failed);
    return false;
  }
  ++submitted_;
  count(submit_status::submitted);
  return true;
}

submit_status async_session::try_get(const std::string& key) {
  const submit_status st = try_submit(key, /*is_put=*/false, value_t{});
  if (st == submit_status::submitted) ++submitted_;
  count(st);
  return st;
}

submit_status async_session::try_put(const std::string& key, value_t v) {
  const submit_status st = try_submit(key, /*is_put=*/true, std::move(v));
  if (st == submit_status::submitted) ++submitted_;
  count(st);
  return st;
}

std::optional<std::vector<store_result>> submit_and_drain(
    store_frontend& fe, const process_id& client,
    std::span<const store_op> ops, std::chrono::milliseconds timeout) {
  FASTREG_EXPECTS(!ops.empty());
  auto se = fe.open_session(client, static_cast<std::uint32_t>(ops.size()));
  for (const auto& op : ops) {
    const submit_status st =
        op.is_put ? se->try_put(op.key, op.val) : se->try_get(op.key);
    if (st != submit_status::submitted) return std::nullopt;
  }
  if (!se->drain(timeout)) return std::nullopt;
  return se->take_results();
}

// ---------------------------------------------------------- TCP backend --

namespace {

/// One client's session on its actor of the cluster's client node.
/// Admission checks the session's own window and keys, appends the op to
/// the inbox and schedules a step of the client actor; step(), installed
/// as the actor's step hook, does the rest on the reactor.
class tcp_session final : public async_session {
 public:
  tcp_session(net::node& n, std::size_t actor, op_log& log,
              process_id client, std::uint32_t depth)
      : async_session(std::move(client), depth, log),
        node_(n),
        actor_(actor) {
    node_.set_step_hook(actor_, [this](automaton& a, netout& net) {
      step(dynamic_cast<store::client&>(a), net);
    });
  }
  // Clearing waits out a running step, so no hook call outlives *this.
  ~tcp_session() override { node_.set_step_hook(actor_, {}); }

  void pump() override { harvest(); }

  bool drain(std::chrono::milliseconds timeout) override {
    return harvest_until([&] { return in_flight() == 0; }, timeout);
  }

 private:
  /// The step hook, run once per reactor pass that stepped the actor,
  /// after the pass's last frame. Takes every completion of the pass at
  /// t1 = the hook's time (the session's own go to the outbox), then
  /// begins every queued op whose key is free at t0 = t1 + 1 and flushes
  /// once: one batch frame per server per pass. A same-key successor
  /// begins in the hook run that took its predecessor's completion or
  /// later, so its t0 is strictly greater than that t1; stamping off the
  /// reactor could make the two look concurrent, which the checkers
  /// reject.
  void step(client& c, netout& net) {
    const std::uint64_t t = steady_now_ns();
    std::vector<store_result>& done = complete(c, t);
    // ops_ is empty between steps: the swap leaves queued_ empty too.
    ops_.swap(queued_);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ops_.insert(ops_.end(), std::make_move_iterator(inbox_.begin()),
                  std::make_move_iterator(inbox_.end()));
      inbox_.clear();
      outbox_.insert(outbox_.end(), std::make_move_iterator(done.begin()),
                     std::make_move_iterator(done.end()));
    }
    // Notified after the unlock, so the woken session thread does not
    // block on mu_ straight away.
    if (!done.empty()) cv_.notify_one();
    for (auto& a : ops_) {
      // The key's abandoned op is still pending: wait for it here rather
      // than trip begin_*'s precondition.
      if (c.has_pending(a.obj)) {
        queued_.push_back(std::move(a));
        continue;
      }
      begin(c, std::move(a), t + 1);
    }
    ops_.clear();
    c.flush(net);
  }

  submit_status try_submit(const std::string& key, bool is_put,
                           value_t v) override {
    harvest();
    if (in_flight() >= depth_) return submit_status::window_full;
    const object_id obj = key_object_id(key);
    if (keys_.contains(obj)) return submit_status::key_busy;
    return enqueue(key, obj, is_put, std::move(v));
  }

  bool blocking_submit(const std::string& key, bool is_put, value_t v,
                       std::chrono::milliseconds timeout) override {
    const object_id obj = key_object_id(key);
    const auto admissible = [&] {
      return in_flight() < depth_ && !keys_.contains(obj);
    };
    return harvest_until(admissible, timeout) &&
           enqueue(key, obj, is_put, std::move(v)) ==
               submit_status::submitted;
  }

  submit_status enqueue(const std::string& key, object_id obj, bool is_put,
                        value_t v) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      inbox_.push_back(admitted_op{store_op{key, is_put, std::move(v)}, obj});
    }
    if (!node_.schedule_step(actor_)) {
      // Node not running: withdraw the op. Only this thread appends, and
      // the reactor takes the inbox whole, so a non-empty inbox ends in it.
      std::lock_guard<std::mutex> lk(mu_);
      if (!inbox_.empty()) inbox_.pop_back();
      return submit_status::failed;
    }
    keys_.try_emplace(obj);
    return submit_status::submitted;
  }

  /// Moves the outbox into the results stash, freeing window slots and
  /// keys.
  void harvest() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      harvested_buf_.swap(outbox_);
    }
    for (const auto& r : harvested_buf_) keys_.erase(r.obj);
    stash(harvested_buf_);
  }

  /// Harvests until `ready()` holds, sleeping on the outbox in between.
  /// False when `timeout` runs out first.
  template <typename Ready>
  bool harvest_until(Ready ready, std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      harvest();
      if (ready()) return true;
      std::unique_lock<std::mutex> lk(mu_);
      if (!cv_.wait_until(lk, deadline, [&] { return !outbox_.empty(); })) {
        return false;
      }
    }
  }

  net::node& node_;
  std::size_t actor_;
  /// Objects of admitted ops not yet harvested (session thread only).
  object_table<std::monostate> keys_;
  /// harvest()'s side of the outbox swap, empty between calls (session
  /// thread only); it and the outbox trade places and keep capacity.
  std::vector<store_result> harvested_buf_;
  // The handoff with the reactor.
  std::mutex mu_;
  std::condition_variable cv_;  // signalled when the outbox grows
  /// Admitted ops the reactor has not taken yet. Guarded by mu_.
  std::vector<admitted_op> inbox_;
  /// Completions of this session's ops, not yet harvested. Guarded by mu_.
  std::vector<store_result> outbox_;
  /// Taken from the inbox but not begun: the key is still pending.
  /// Reactor side: touched only inside step(), under the step mutex, like
  /// the base's begun_.
  std::vector<admitted_op> queued_;
  /// step()'s working list, empty between steps (reactor side, like
  /// queued_); it and queued_ trade places and keep capacity.
  std::vector<admitted_op> ops_;
};

}  // namespace

std::unique_ptr<async_session> tcp_frontend::open_session(
    const process_id& client_pid, std::uint32_t depth) {
  return std::make_unique<tcp_session>(cluster_.client_node(client_pid),
                                       cluster_.client_actor(client_pid),
                                       log_, client_pid, depth);
}

// ---------------------------------------------------------- sim backend --

namespace {

/// One client's session on the deterministic simulator. try_* buffers
/// admitted ops; pump() issues the whole buffer in ONE invoke_step
/// (batched envelopes). The world step hook takes completions at the
/// step that delivers them. Blocking calls run the world (run_random on
/// the frontend's rng) until admission/completion, guarded by a step
/// budget so a wedged schedule fails instead of spinning forever.
class sim_session final : public async_session {
 public:
  sim_session(sim_store& s, rng& r, process_id client, std::uint32_t depth)
      : async_session(std::move(client), depth, s.log()), s_(s), r_(r) {
    // Completions that landed while no session was open close now,
    // before this session begins an op on their keys.
    (void)complete(automaton_ref(), s_.world().now());
    s_.world().set_step_hook(client_, [this](automaton& a, netout&) {
      stash(complete(dynamic_cast<store::client&>(a), s_.world().now()));
    });
  }
  ~sim_session() override { s_.world().set_step_hook(client_, {}); }

  void pump() override {
    if (buf_.empty()) return;
    auto& c = automaton_ref();
    s_.world().invoke_step(client_, [&](netout& net) {
      for (auto& a : buf_) begin(c, std::move(a), s_.world().now());
      c.flush(net);
    });
    buf_.clear();
  }

  bool drain(std::chrono::milliseconds) override {
    pump();
    std::uint64_t guard = 0;
    while (in_flight() > 0) {
      if (++guard > k_step_budget) return false;
      if (s_.run_random(r_, 1) == 0) return false;  // wedged
    }
    return true;
  }

 private:
  static constexpr std::uint64_t k_step_budget = 200'000'000;

  [[nodiscard]] client& automaton_ref() {
    return client_.is_writer() ? s_.writer_client(client_.index)
                               : s_.reader_client(client_.index);
  }

  [[nodiscard]] bool buffered(object_id obj) const {
    return std::any_of(buf_.begin(), buf_.end(),
                       [&](const admitted_op& a) { return a.obj == obj; });
  }

  submit_status try_submit(const std::string& key, bool is_put,
                           value_t v) override {
    if (in_flight() >= depth_) return submit_status::window_full;
    const object_id obj = key_object_id(key);
    if (buffered(obj) || automaton_ref().has_pending(obj)) {
      return submit_status::key_busy;
    }
    buf_.push_back(admitted_op{store_op{key, is_put, std::move(v)}, obj});
    return submit_status::submitted;
  }

  bool blocking_submit(const std::string& key, bool is_put, value_t v,
                       std::chrono::milliseconds) override {
    std::uint64_t guard = 0;
    for (;;) {
      const submit_status st = try_submit(key, is_put, v);
      // Blocking semantics promise the op is ON the wire on return, and a
      // wait must not hold admitted ops back: issue the buffer either way.
      pump();
      if (st == submit_status::submitted) return true;
      if (++guard > k_step_budget) return false;
      if (s_.run_random(r_, 1) == 0) return false;  // wedged
    }
  }

  sim_store& s_;
  rng& r_;
  std::vector<admitted_op> buf_;
};

}  // namespace

sim_frontend::sim_frontend(sim_store& s, rng& r)
    : store_frontend(s.log()), s_(s), r_(r) {}

std::unique_ptr<async_session> sim_frontend::open_session(
    const process_id& client_pid, std::uint32_t depth) {
  return std::make_unique<sim_session>(s_, r_, client_pid, depth);
}

}  // namespace fastreg::store
