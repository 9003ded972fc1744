#include "sim/world.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/log.h"
#include "obs/recorder.h"

namespace fastreg::sim {

world::world(system_config cfg) : cfg_(std::move(cfg)) {}

void world::install(const protocol& proto) {
  procs_.clear();
  procs_.reserve(cfg_.W() + cfg_.R() + cfg_.S());
  for (std::uint32_t i = 0; i < cfg_.W(); ++i) {
    procs_.push_back(proto.make_writer(cfg_, i));
  }
  for (std::uint32_t i = 0; i < cfg_.R(); ++i) {
    procs_.push_back(proto.make_reader(cfg_, i));
  }
  for (std::uint32_t i = 0; i < cfg_.S(); ++i) {
    procs_.push_back(proto.make_server(cfg_, i));
  }
}

std::size_t world::index_of(const process_id& p) const {
  switch (p.r) {
    case role::writer:
      FASTREG_EXPECTS(p.index < cfg_.W());
      return p.index;
    case role::reader:
      FASTREG_EXPECTS(p.index < cfg_.R());
      return cfg_.W() + p.index;
    case role::server:
      FASTREG_EXPECTS(p.index < cfg_.S());
      return cfg_.W() + cfg_.R() + p.index;
  }
  FASTREG_CHECK(false);
  return 0;
}

void world::replace_automaton(const process_id& p,
                              std::unique_ptr<automaton> a) {
  procs_[index_of(p)] = std::move(a);
}

automaton* world::get(const process_id& p) {
  return procs_[index_of(p)].get();
}

reader_iface* world::reader(std::uint32_t i) {
  auto* r = as_reader(get(reader_id(i)));
  FASTREG_ENSURES(r != nullptr);
  return r;
}

writer_iface* world::writer(std::uint32_t i) {
  auto* w = as_writer(get(writer_id(i)));
  FASTREG_ENSURES(w != nullptr);
  return w;
}

// --------------------------------------------------------------- sending --

obs::recorder& world::rec_for(const process_id& p) {
  auto it = rec_cache_.find(p);
  if (it == rec_cache_.end()) {
    it = rec_cache_.emplace(p, &obs::recorder_for(p)).first;
  }
  return *it->second;
}

namespace {

// Register automata predate trace ids and never stamp their messages;
// the step's ambient trace context (set by the invocation / delivery
// that triggered this send) fills the gap. Store messages arrive here
// already stamped and keep their id.
void stamp_if_untraced(message& m) {
  if (m.trace != 0) return;
  const auto ctx = obs::current_trace_ctx();
  m.trace = ctx.trace;
  m.span = ctx.span;
}

}  // namespace

void world::send(const process_id& to, message m) {
  stamp_if_untraced(m);
  outbox_.push_back({to, std::move(m), {}});
}

void world::send_batch(const process_id& to, std::vector<message> msgs) {
  FASTREG_EXPECTS(!msgs.empty());
  for (auto& m : msgs) stamp_if_untraced(m);
  outbox_entry e;
  e.to = to;
  e.first = std::move(msgs.front());
  e.tail.assign(std::make_move_iterator(msgs.begin() + 1),
                std::make_move_iterator(msgs.end()));
  outbox_.push_back(std::move(e));
}

void world::flush_sends(const process_id& from) {
  std::size_t keep = outbox_.size();
  if (auto it = armed_partial_crash_.find(from);
      it != armed_partial_crash_.end() && !outbox_.empty()) {
    keep = std::min(keep, it->second);
    armed_partial_crash_.erase(it);
    crashed_.insert(from);
  }
  const bool rec = obs::recording_active();
  for (std::size_t i = 0; i < keep; ++i) {
    envelope env;
    env.id = next_envelope_id_++;
    env.from = from;
    env.to = outbox_[i].to;
    env.msg = std::move(outbox_[i].first);
    env.tail = std::move(outbox_[i].tail);
    env.sent_at = now_;
    env.due_at = 0;
    sent_count_ += env.message_count();
    ++envelopes_sent_;
    if (rec) {
      auto& r = rec_for(from);
      r.record(obs::rec_event::send, env.msg.trace, env.msg.span,
               static_cast<std::uint8_t>(env.msg.type), env.to, env.msg.obj,
               env.msg.epoch, env.msg.ts);
      for (const auto& m : env.tail) {
        r.record(obs::rec_event::send, m.trace, m.span,
                 static_cast<std::uint8_t>(m.type), env.to, m.obj, m.epoch,
                 m.ts);
      }
    }
    mset_.push_back(std::move(env));
  }
  outbox_.clear();
}

// ----------------------------------------------------------- invocations --

void world::invoke_write(std::uint32_t writer_index, value_t v) {
  const process_id wid = writer_id(writer_index);
  FASTREG_EXPECTS(!crashed_.contains(wid));
  auto* w = writer(writer_index);
  FASTREG_EXPECTS(!w->write_in_progress());
  ++now_;
  auto& st = clients_[wid];
  st.pending = true;
  st.completed_before = w->writes_completed();
  st.op_index = history_.begin_op(wid, /*is_write=*/true, now_, v);
  // The flight recorder stamps this step with the simulated clock, so
  // its events agree with the history this run records; log lines carry
  // the stepped automaton's id. A fresh trace id covers every message
  // this register op causes (the automata themselves are
  // trace-oblivious).
  obs::scoped_trace_time trace_time(now_);
  obs::scoped_trace_ctx trace_ctx(obs::next_trace_id(), 0);
  scoped_log_node log_node(to_string(wid));
  w->invoke_write(*this, std::move(v));
  end_step(wid);
}

void world::invoke_read(std::uint32_t reader_index) {
  const process_id rid = reader_id(reader_index);
  FASTREG_EXPECTS(!crashed_.contains(rid));
  auto* r = reader(reader_index);
  FASTREG_EXPECTS(!r->read_in_progress());
  ++now_;
  auto& st = clients_[rid];
  st.pending = true;
  st.completed_before = r->reads_completed();
  st.op_index = history_.begin_op(rid, /*is_write=*/false, now_);
  obs::scoped_trace_time trace_time(now_);
  obs::scoped_trace_ctx trace_ctx(obs::next_trace_id(), 0);
  scoped_log_node log_node(to_string(rid));
  r->invoke_read(*this);
  end_step(rid);
}

void world::invoke_step(const process_id& p,
                        const std::function<void(netout&)>& fn) {
  FASTREG_EXPECTS(!crashed_.contains(p));
  ++now_;
  obs::scoped_trace_time trace_time(now_);
  scoped_log_node log_node(to_string(p));
  fn(*this);
  end_step(p);
}

void world::set_step_hook(const process_id& p, step_fn hook) {
  const std::size_t i = index_of(p);
  if (hooks_.size() <= i) hooks_.resize(i + 1);
  hooks_[i] = std::move(hook);
}

void world::end_step(const process_id& p) {
  if (!hooks_.empty()) {
    const std::size_t i = index_of(p);
    if (i < hooks_.size() && hooks_[i]) hooks_[i](*procs_[i], *this);
  }
  flush_sends(p);
}

bool world::client_busy(const process_id& p) {
  if (p.is_reader()) return reader(p.index)->read_in_progress();
  if (p.is_writer()) return writer(p.index)->write_in_progress();
  return false;
}

std::optional<read_result> world::last_read(std::uint32_t reader_index) {
  return reader(reader_index)->last_read();
}

void world::poll_completion(const process_id& p) {
  auto it = clients_.find(p);
  if (it == clients_.end() || !it->second.pending) return;
  auto& st = it->second;
  if (p.is_reader()) {
    auto* r = reader(p.index);
    if (r->reads_completed() > st.completed_before) {
      const auto& res = r->last_read();
      FASTREG_CHECK(res.has_value());
      history_.complete_read(st.op_index, now_, res->ts, res->wid, res->val,
                             res->rounds);
      st.pending = false;
    }
  } else if (p.is_writer()) {
    auto* w = writer(p.index);
    if (w->writes_completed() > st.completed_before) {
      history_.complete_write(st.op_index, now_, w->last_write_rounds());
      st.pending = false;
    }
  }
}

// -------------------------------------------------------- manual driving --

void world::do_step(const process_id& to, const envelope& env) {
  auto& a = *procs_[index_of(to)];
  obs::scoped_trace_time trace_time(now_);
  // Replies a trace-oblivious automaton sends during this step inherit
  // the delivered message's identity (batches only carry one ambient
  // ctx -- the head's -- but store automata stamp replies themselves).
  obs::scoped_trace_ctx trace_ctx(env.msg.trace, env.msg.span);
  scoped_log_node log_node(to_string(to));
  if (obs::recording_active()) {
    auto& r = rec_for(to);
    r.record(obs::rec_event::recv, env.msg.trace, env.msg.span,
             static_cast<std::uint8_t>(env.msg.type), env.from, env.msg.obj,
             env.msg.epoch, env.msg.ts);
    for (const auto& m : env.tail) {
      r.record(obs::rec_event::recv, m.trace, m.span,
               static_cast<std::uint8_t>(m.type), env.from, m.obj, m.epoch,
               m.ts);
    }
  }
  if (env.tail.empty()) {
    a.on_message(*this, env.from, env.msg);
  } else {
    std::vector<message> all;
    all.reserve(env.message_count());
    all.push_back(env.msg);
    all.insert(all.end(), env.tail.begin(), env.tail.end());
    a.on_batch(*this, env.from, all);
  }
  end_step(to);
  delivered_count_ += env.message_count();
  poll_completion(to);
}

bool world::deliver(std::uint64_t envelope_id) {
  auto it = std::find_if(mset_.begin(), mset_.end(), [&](const envelope& e) {
    return e.id == envelope_id;
  });
  if (it == mset_.end()) return false;
  envelope env = std::move(*it);
  mset_.erase(it);
  ++now_;
  if (crashed_.contains(env.to)) return false;  // consumed, never processed
  do_step(env.to, env);
  return true;
}

std::vector<std::uint64_t> world::find_envelopes(
    const envelope_pred& pred) const {
  std::vector<std::uint64_t> ids;
  for (const auto& e : mset_) {
    if (pred(e)) ids.push_back(e.id);
  }
  return ids;
}

std::size_t world::deliver_matching(const envelope_pred& pred) {
  std::size_t n = 0;
  for (std::uint64_t id : find_envelopes(pred)) {
    if (deliver(id)) ++n;
  }
  return n;
}

std::size_t world::drop_matching(const envelope_pred& pred) {
  const std::size_t before = mset_.size();
  std::erase_if(mset_, pred);
  return before - mset_.size();
}

// --------------------------------------------------------- bulk schedules --

std::uint64_t world::run_random(rng& r, std::uint64_t max_steps) {
  return run_random_until(r, [] { return false; }, max_steps);
}

std::uint64_t world::run_random_until(rng& r,
                                      const std::function<bool()>& done,
                                      std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  while (!mset_.empty() && steps < max_steps && !done()) {
    std::size_t pick;
    if (blocked_.empty()) {
      pick = static_cast<std::size_t>(r.below(mset_.size()));
    } else {
      // Partitions active: choose uniformly among DELIVERABLE envelopes;
      // blocked ones stay in transit until heal.
      std::vector<std::size_t> deliverable;
      deliverable.reserve(mset_.size());
      for (std::size_t i = 0; i < mset_.size(); ++i) {
        if (!link_blocked(mset_[i].from, mset_[i].to)) {
          deliverable.push_back(i);
        }
      }
      if (deliverable.empty()) break;  // everything in transit is blocked
      pick = deliverable[static_cast<std::size_t>(
          r.below(deliverable.size()))];
    }
    envelope env = std::move(mset_[pick]);
    mset_.erase(mset_.begin() + static_cast<std::ptrdiff_t>(pick));
    ++now_;
    ++steps;
    if (crashed_.contains(env.to)) continue;
    do_step(env.to, env);
  }
  return steps;
}

std::uint64_t world::run_timed(rng& r, delay_model& delays,
                               std::uint64_t max_steps) {
  return run_timed_until(r, delays, [] { return false; }, max_steps);
}

std::uint64_t world::run_timed_until(rng& r, delay_model& delays,
                                     const std::function<bool()>& done,
                                     std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  while (!mset_.empty() && steps < max_steps && !done()) {
    // Assign due times to any messages that do not have one yet.
    for (auto& e : mset_) {
      if (e.due_at == 0) {
        e.due_at = std::max(e.sent_at, now_) + delays.sample(r, e.from, e.to);
      }
    }
    // Earliest due DELIVERABLE message next (a blocked link delays its
    // messages past the heal; their due time may then be long past, so
    // they arrive in one post-heal burst -- the flush a real partition
    // ends with).
    auto it = mset_.end();
    for (auto e = mset_.begin(); e != mset_.end(); ++e) {
      if (!blocked_.empty() && link_blocked(e->from, e->to)) continue;
      if (it == mset_.end() || e->due_at < it->due_at) it = e;
    }
    if (it == mset_.end()) break;  // everything in transit is blocked
    envelope env = std::move(*it);
    mset_.erase(it);
    now_ = std::max(now_ + 1, env.due_at);
    ++steps;
    if (crashed_.contains(env.to)) continue;
    do_step(env.to, env);
  }
  return steps;
}

// --------------------------------------------------------------- failures --

void world::crash(const process_id& p) { crashed_.insert(p); }

void world::restart(const process_id& p, std::unique_ptr<automaton> a) {
  FASTREG_EXPECTS(a != nullptr);
  crashed_.erase(p);
  armed_partial_crash_.erase(p);
  replace_automaton(p, std::move(a));
}

void world::crash_after_sends(const process_id& p, std::size_t deliver_first) {
  armed_partial_crash_[p] = deliver_first;
}

// ------------------------------------------------------------ partitions --

namespace {

std::pair<process_id, process_id> link_key(const process_id& a,
                                           const process_id& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

void world::partition(const process_id& a, const process_id& b) {
  blocked_.insert(link_key(a, b));
}

void world::heal(const process_id& a, const process_id& b) {
  blocked_.erase(link_key(a, b));
}

bool world::link_blocked(const process_id& a, const process_id& b) const {
  return !blocked_.empty() && blocked_.contains(link_key(a, b));
}

// ------------------------------------------------------------------ fork --

world world::fork() const {
  world w(cfg_);
  w.procs_.reserve(procs_.size());
  for (const auto& a : procs_) w.procs_.push_back(a->clone());
  w.mset_ = mset_;
  w.next_envelope_id_ = next_envelope_id_;
  w.now_ = now_;
  w.crashed_ = crashed_;
  w.blocked_ = blocked_;
  w.armed_partial_crash_ = armed_partial_crash_;
  w.clients_ = clients_;
  w.history_ = history_;
  w.sent_count_ = sent_count_;
  w.delivered_count_ = delivered_count_;
  w.envelopes_sent_ = envelopes_sent_;
  return w;
}

}  // namespace fastreg::sim
