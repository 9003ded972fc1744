#include "store/async_client.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <unordered_set>

#include "common/check.h"
#include "net/cluster.h"
#include "net/node.h"
#include "store/sim_store.h"

namespace fastreg::store {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// --------------------------------------------------------------- op_log --

void op_log::open(const process_id& client_pid, const std::string& key,
                  bool is_put, const value_t& v, std::uint64_t t0) {
  std::lock_guard<std::mutex> lk(mu_);
  raw_op op;
  op.key = key;
  op.client = client_pid;
  op.is_put = is_put;
  op.t0 = t0;
  if (is_put) op.val = v;
  log_.push_back(std::move(op));
  open_[{client_pid, key}].push_back(log_.size() - 1);
}

void op_log::close(const process_id& client_pid,
                   const std::vector<store_result>& results,
                   std::uint64_t t1) {
  std::lock_guard<std::mutex> lk(mu_);
  // Match completions to the EARLIEST incomplete log entry for their
  // (client, key): a stale completion closes the abandoned older entry,
  // a fresh one closes its own session's.
  for (const auto& r : results) {
    const auto open_it = open_.find({client_pid, r.key});
    if (open_it == open_.end() || open_it->second.empty()) continue;
    const std::size_t i = open_it->second.front();
    open_it->second.pop_front();
    if (open_it->second.empty()) open_.erase(open_it);
    auto& op = log_[i];
    op.t1 = t1;
    op.ts = r.ts;
    op.wid = r.wid;
    if (!r.is_put) op.val = r.val;
    op.rounds = r.rounds;
  }
}

store_histories op_log::gather() const {
  std::vector<raw_op> log;
  {
    std::lock_guard<std::mutex> lk(mu_);
    log = log_;
  }
  std::sort(log.begin(), log.end(),
            [](const raw_op& a, const raw_op& b) { return a.t0 < b.t0; });
  store_histories out;
  for (const auto& op : log) {
    auto& h = out.for_key(op.key);
    const auto idx = h.begin_op(op.client, op.is_put, op.t0,
                                op.is_put ? op.val : value_t{});
    if (!op.t1) continue;
    if (op.is_put) {
      h.complete_write(idx, *op.t1, op.rounds);
    } else {
      h.complete_read(idx, *op.t1, op.ts, op.wid, op.val, op.rounds);
    }
  }
  return out;
}

// -------------------------------------------------------- async_session --

async_session::async_session(process_id client, std::uint32_t depth)
    : client_(std::move(client)), depth_(depth) {
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

void async_session::stash(std::vector<store_result> done) {
  if (done.empty()) return;
  harvested_ += done.size();
  results_.insert(results_.end(), std::make_move_iterator(done.begin()),
                  std::make_move_iterator(done.end()));
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

/// One client's session on a net::node (per-node or hub topology).
/// Admission checks the session's own window and keys, appends the op to
/// the inbox and schedules a step of the client actor; step(), installed
/// as the actor's step hook, does the rest on the reactor.
class tcp_session final : public async_session {
 public:
  tcp_session(net::node& n, std::size_t actor, op_log& log,
              process_id client, std::uint32_t depth)
      : async_session(std::move(client), depth),
        node_(n),
        actor_(actor),
        log_(log) {
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
  /// The step hook. Takes the step's completions, closing their op_log
  /// entries at t1 = the step's time (the session's own go to the
  /// outbox), then begins every queued op whose key is free at t0 = t1 +
  /// 1 and flushes once: one batch frame per server. A same-key successor
  /// begins in the step that took its predecessor's completion or later,
  /// so its t0 is strictly greater than that t1; stamping off the reactor
  /// could make the two look concurrent, which the checkers reject.
  void step(client& c, netout& net) {
    const std::uint64_t t = now_ns();
    std::vector<store_result> done = c.take_completions();
    if (!done.empty()) {
      log_.close(client_, done, t);
      // A key this session did not begin: the late completion of an op an
      // earlier session gave up on. Its log entry is closed above, and
      // nobody waits for it.
      std::erase_if(done, [&](const store_result& r) {
        return begun_.erase(r.key) == 0;
      });
    }
    std::vector<store_op> ops = std::exchange(queued_, {});
    {
      std::lock_guard<std::mutex> lk(mu_);
      ops.insert(ops.end(), std::make_move_iterator(inbox_.begin()),
                 std::make_move_iterator(inbox_.end()));
      inbox_.clear();
      if (!done.empty()) {
        outbox_.insert(outbox_.end(), std::make_move_iterator(done.begin()),
                       std::make_move_iterator(done.end()));
        cv_.notify_one();
      }
    }
    for (auto& op : ops) {
      // The key's abandoned op is still pending: wait for it here rather
      // than trip begin_*'s precondition.
      if (c.has_pending(op.key)) {
        queued_.push_back(std::move(op));
        continue;
      }
      log_.open(client_, op.key, op.is_put, op.val, t + 1);
      begun_.insert(op.key);
      if (op.is_put) {
        c.begin_put(op.key, std::move(op.val));
      } else {
        c.begin_get(op.key);
      }
    }
    c.flush(net);
  }

  submit_status try_submit(const std::string& key, bool is_put,
                           value_t v) override {
    harvest();
    if (in_flight() >= depth_) return submit_status::window_full;
    if (keys_.contains(key)) return submit_status::key_busy;
    return enqueue(key, is_put, std::move(v));
  }

  bool blocking_submit(const std::string& key, bool is_put, value_t v,
                       std::chrono::milliseconds timeout) override {
    const auto admissible = [&] {
      return in_flight() < depth_ && !keys_.contains(key);
    };
    return harvest_until(admissible, timeout) &&
           enqueue(key, is_put, std::move(v)) == submit_status::submitted;
  }

  submit_status enqueue(const std::string& key, bool is_put, value_t v) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      inbox_.push_back(store_op{key, is_put, std::move(v)});
    }
    if (!node_.schedule_step(actor_)) {
      // Node not running: withdraw the op. Only this thread appends, and
      // the reactor takes the inbox whole, so a non-empty inbox ends in it.
      std::lock_guard<std::mutex> lk(mu_);
      if (!inbox_.empty()) inbox_.pop_back();
      return submit_status::failed;
    }
    keys_.insert(key);
    return submit_status::submitted;
  }

  /// Moves the outbox into the results stash, freeing window slots and
  /// keys.
  void harvest() {
    std::vector<store_result> done;
    {
      std::lock_guard<std::mutex> lk(mu_);
      done.swap(outbox_);
    }
    for (const auto& r : done) keys_.erase(r.key);
    stash(std::move(done));
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
  op_log& log_;
  /// Keys of admitted ops not yet harvested (session thread only).
  std::unordered_set<std::string> keys_;
  // The handoff with the reactor.
  std::mutex mu_;
  std::condition_variable cv_;  // signalled when the outbox grows
  /// Admitted ops the reactor has not taken yet. Guarded by mu_.
  std::vector<store_op> inbox_;
  /// Completions of this session's ops, not yet harvested. Guarded by mu_.
  std::vector<store_result> outbox_;
  // Reactor side: touched only inside step(), under the step mutex.
  /// Taken from the inbox but not begun: the key is still pending.
  std::vector<store_op> queued_;
  /// Keys of this session's begun, not yet completed ops.
  std::unordered_set<std::string> begun_;
};

}  // namespace

std::unique_ptr<async_session> tcp_frontend::open_session(
    const process_id& client_pid, std::uint32_t depth) {
  return std::make_unique<tcp_session>(cluster_.client_node(client_pid),
                                       cluster_.client_actor(client_pid),
                                       log_, client_pid, depth);
}

store_histories tcp_frontend::gather() const { return log_.gather(); }

// ---------------------------------------------------------- sim backend --

namespace {

/// One client's session on the deterministic simulator. try_* buffers
/// admitted ops; pump() issues the whole buffer in ONE invoke_step
/// (batched envelopes) and collects the completions the sim_store
/// tapped for this client. Blocking calls run the world (run_random on
/// the frontend's rng) until admission/completion, guarded by a step
/// budget so a wedged schedule fails instead of spinning forever.
class sim_session final : public async_session {
 public:
  sim_session(sim_store& s, rng& r, process_id client, std::uint32_t depth)
      : async_session(std::move(client), depth), s_(s), r_(r) {
    s_.tap_client(client_);
  }
  ~sim_session() override { s_.untap_client(client_); }

  void pump() override {
    if (!buf_.empty()) {
      s_.invoke_ops(client_, buf_);
      buf_.clear();
    }
    stash(s_.take_tapped(client_));
  }

  bool drain(std::chrono::milliseconds) override {
    pump();
    std::uint64_t guard = 0;
    while (in_flight() > 0) {
      if (++guard > k_step_budget) return false;
      if (s_.run_random(r_, 1) == 0) return false;  // wedged
      pump();
    }
    return true;
  }

 private:
  static constexpr std::uint64_t k_step_budget = 200'000'000;

  [[nodiscard]] client& automaton_ref() {
    return client_.is_writer() ? s_.writer_client(client_.index)
                               : s_.reader_client(client_.index);
  }

  [[nodiscard]] bool key_buffered(const std::string& key) const {
    return std::any_of(buf_.begin(), buf_.end(),
                       [&](const store_op& op) { return op.key == key; });
  }

  submit_status try_submit(const std::string& key, bool is_put,
                           value_t v) override {
    if (in_flight() >= depth_) return submit_status::window_full;
    if (key_buffered(key) || automaton_ref().has_pending(key)) {
      return submit_status::key_busy;
    }
    buf_.push_back(store_op{key, is_put, std::move(v)});
    return submit_status::submitted;
  }

  bool blocking_submit(const std::string& key, bool is_put, value_t v,
                       std::chrono::milliseconds) override {
    std::uint64_t guard = 0;
    for (;;) {
      const submit_status st = try_submit(key, is_put, v);
      if (st == submit_status::submitted) {
        // Blocking semantics promise the op is ON the wire on return, so
        // the buffered batch (this op included) is issued now.
        pump();
        return true;
      }
      pump();
      if (++guard > k_step_budget) return false;
      if (s_.run_random(r_, 1) == 0) return false;  // wedged
    }
  }

  sim_store& s_;
  rng& r_;
  std::vector<store_op> buf_;
};

}  // namespace

std::unique_ptr<async_session> sim_frontend::open_session(
    const process_id& client_pid, std::uint32_t depth) {
  return std::make_unique<sim_session>(s_, r_, client_pid, depth);
}

store_histories sim_frontend::gather() const { return s_.histories(); }

}  // namespace fastreg::store
