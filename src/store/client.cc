#include "store/client.h"

#include <utility>

#include "common/check.h"
#include "crypto/sig.h"

namespace fastreg::store {

client::client(std::shared_ptr<const shard_map> shards, process_id self,
               map_source source)
    : map_(std::move(shards)), source_(std::move(source)), self_(self) {
  FASTREG_EXPECTS(self_.is_reader() || self_.is_writer());
  auto& reg = obs::registry::instance();
  const std::string lbl = "node=\"" + to_string(self_) + "\"";
  parks_total_ = &reg.get_counter("fastreg_store_parks_total", lbl);
  resumes_total_ = &reg.get_counter("fastreg_store_resumes_total", lbl);
  rec_ = &obs::recorder_for(self_);
}

automaton& client::inner_for(object_id obj) {
  auto it = objects_.find(obj);
  if (it == objects_.end()) {
    const auto& proto = map_->protocol_for_object(obj);
    const auto& base = map_->config().base;
    auto a = self_.is_reader() ? proto.make_reader(base, self_.index, obj)
                               : proto.make_writer(base, self_.index, obj);
    if (self_.is_writer()) {
      // A migrated object's fresh writer must resume above the handed-off
      // timestamp (and advertise its value as the preceding write).
      const auto fl = floors_.find(obj);
      if (fl != floors_.end()) as_writer(a.get())->seed_writer(fl->second);
    }
    it = objects_
             .emplace(obj, inner_automaton{std::move(a), map_->epoch()})
             .first;
  }
  return *it->second.a;
}

void client::invoke_on(object_id obj, pending_op& op) {
  auto& inner = inner_for(obj);
  op.epoch = epoch();
  tagging_netout tagged(outbox_, obj, epoch(), op.attempt, false, op.trace,
                        op.span);
  if (op.is_put) {
    auto* w = as_writer(&inner);
    FASTREG_ENSURES(w != nullptr);
    op.before = w->writes_completed();
    w->invoke_write(tagged, op.val);
  } else {
    auto* r = as_reader(&inner);
    FASTREG_ENSURES(r != nullptr);
    op.before = r->reads_completed();
    r->invoke_read(tagged);
  }
}

void client::begin_get(const std::string& key) {
  FASTREG_EXPECTS(self_.is_reader());
  const object_id obj = key_object_id(key);
  FASTREG_EXPECTS(!pending_.contains(obj));
  auto& op = pending_[obj];
  op.key = key;
  op.is_put = false;
  op.attempt = ++attempts_[obj];
  op.trace = obs::next_trace_id();
  invoke_on(obj, op);
}

void client::begin_put(const std::string& key, value_t v) {
  FASTREG_EXPECTS(self_.is_writer());
  const object_id obj = key_object_id(key);
  FASTREG_EXPECTS(!pending_.contains(obj));
  auto& op = pending_[obj];
  op.key = key;
  op.is_put = true;
  op.val = std::move(v);
  op.attempt = ++attempts_[obj];
  op.trace = obs::next_trace_id();
  invoke_on(obj, op);
}

void client::flush(netout& net) { outbox_.flush(net); }

std::vector<store_result> client::take_completions() {
  return std::exchange(completions_, {});
}

// ------------------------------------------------------------- reconfig --

std::size_t client::parked_count() const {
  std::size_t n = 0;
  for (const auto& [obj, op] : pending_) n += op.parked ? 1 : 0;
  return n;
}

void client::reissue(object_id obj, pending_op& op) {
  // The abandoned attempt's automaton state (including any acks it
  // gathered) is protocol state of a superseded generation; discard it
  // and start over against the current map.
  const bool resuming = op.parked;
  if (resuming) resumes_total_->inc();
  op.attempt = ++attempts_[obj];
  op.parked = false;
  ++op.span;  // a new attempt is a new span of the same trace
  if (resuming && obs::recording_active()) {
    rec_->record(obs::rec_event::resume, op.trace, op.span, 0, self_, obj,
                 epoch(), k_initial_ts);
  }
  objects_.erase(obj);
  invoke_on(obj, op);
}

void client::park(object_id obj, pending_op& op) {
  parks_total_->inc();
  if (obs::recording_active()) {
    rec_->record(obs::rec_event::park, op.trace, op.span, 0, self_, obj,
                 epoch(), k_initial_ts);
  }
  op.parked = true;
  objects_.erase(obj);
}

void client::refresh_map() {
  if (!source_) return;
  auto latest = source_();
  FASTREG_CHECK(latest != nullptr);
  if (latest->epoch() <= map_->epoch()) return;
  // Objects whose protocol changed get fresh automata (their server-side
  // instances were replaced too); unchanged objects keep automaton and
  // in-flight ops -- their instances carried over on every server.
  std::unordered_set<object_id> dropped;
  for (const auto& [obj, inner] : objects_) {
    if (object_moves(*map_, *latest, obj)) dropped.insert(obj);
  }
  for (const auto obj : dropped) objects_.erase(obj);
  map_ = std::move(latest);
  for (auto& [obj, op] : pending_) {
    if (op.parked || !dropped.contains(obj)) continue;
    reissue(obj, op);
  }
}

void client::resume_parked(object_id obj) {
  refresh_map();
  const auto it = pending_.find(obj);
  if (it == pending_.end() || !it->second.parked) return;
  // Only PARKED ops re-issue here. A non-parked in-flight op is either
  // answered normally or buffered at a server behind a lazy seed fetch
  // (store/server.h) and completes when the fetch replays it; re-issuing
  // it would discard an automaton whose requests servers may have
  // already processed, and the replacement's restarted per-client
  // request counter would be silently ignored by protocols that guard
  // against stale counters (fast_swmr line 26). Nacks cannot strand an
  // in-flight op either: handle_nack re-issues any attempt issued under
  // an older epoch and only parks current-epoch attempts, which only a
  // later reconfiguration nacks (and then resumes).
  reissue(it->first, it->second);
}

void client::seed_writer_floor(object_id obj, const register_snapshot& s) {
  floors_[obj] = s;
  // A put already in flight on this object may run on an automaton created
  // BEFORE the floor existed (invoked at the new epoch while the key was
  // draining). Its un-floored requests could slip past the fence once the
  // servers seed, complete against acks that merely echo the request's
  // timestamp, and be lost. Park it: the automaton is discarded, and the
  // coordinator's resume_parked (which always follows a floor install)
  // re-issues the op through a freshly floored automaton.
  const auto it = pending_.find(obj);
  if (it != pending_.end() && !it->second.parked && it->second.is_put) {
    park(obj, it->second);
  }
}

void client::begin_state_read(object_id obj, epoch_t old_epoch) {
  FASTREG_EXPECTS(!mig_ || mig_->done);
  mig_.emplace();
  mig_->is_seed = false;
  mig_->obj = obj;
  mig_->seq = ++mig_seq_;
  message m;
  m.type = msg_type::state_req;
  m.obj = mig_->obj;
  m.epoch = old_epoch;
  m.mig = true;
  m.trace = obs::next_trace_id();
  m.rcounter = mig_->seq;
  for (std::uint32_t i = 0; i < map_->config().base.S(); ++i) {
    outbox_.add(server_id(i), m);
  }
}

void client::begin_seed(object_id obj, const register_snapshot& s,
                        epoch_t new_epoch) {
  FASTREG_EXPECTS(!mig_ || mig_->done);
  mig_.emplace();
  mig_->is_seed = true;
  mig_->obj = obj;
  mig_->seq = ++mig_seq_;
  message m;
  m.type = msg_type::seed_req;
  m.obj = mig_->obj;
  // The coordinator names the generation explicitly: this client's own
  // map may lag (it only refreshes from data-path replies), and the
  // servers reject seeds not stamped with their current generation.
  m.epoch = new_epoch;
  m.mig = true;
  m.trace = obs::next_trace_id();
  m.rcounter = mig_->seq;
  m.ts = s.ts;
  m.wid = s.wid;
  m.val = s.val;
  m.prev = s.prev;
  m.sig = s.sig;
  for (std::uint32_t i = 0; i < map_->config().base.S(); ++i) {
    outbox_.add(server_id(i), m);
  }
}

void client::begin_stats(std::uint32_t server_index) {
  message m;
  m.type = msg_type::stats_req;
  m.trace = obs::next_trace_id();
  m.rcounter = ++stats_seq_;
  stats_.reset();
  outbox_.add(server_id(server_index), std::move(m));
}

std::string client::take_stats() {
  std::string out = stats_.value_or(std::string{});
  stats_.reset();
  return out;
}

const register_snapshot& client::mig_snapshot() const {
  FASTREG_EXPECTS(mig_done() && !mig_->is_seed);
  return mig_->best;
}

void client::handle_mig_ack(const process_id& from, const message& m) {
  if (!mig_ || mig_->done || !from.is_server()) return;
  if (m.rcounter != mig_->seq || m.obj != mig_->obj) return;
  const bool is_seed_ack = m.type == msg_type::seed_ack;
  if (is_seed_ack != mig_->is_seed) return;
  if (!mig_->acked.insert(from.index).second) return;
  const auto& base = map_->config().base;
  if (!is_seed_ack) {
    // In the arbitrary-failure model only a valid writer signature makes
    // a state answer trustworthy (a Byzantine server could otherwise
    // fabricate an arbitrarily high timestamp).
    bool trusted = true;
    if (base.b() > 0) {
      FASTREG_CHECK(base.sigs != nullptr);
      if (m.ts == k_initial_ts) {
        trusted = m.sig.empty() && m.val.empty() && m.prev.empty();
      } else {
        const auto payload = signed_payload(m);
        trusted = m.ts > 0 &&
                  base.sigs->verify(
                      writer_id(0),
                      std::span<const std::uint8_t>(payload.data(),
                                                    payload.size()),
                      std::span<const std::uint8_t>(m.sig.data(),
                                                    m.sig.size()));
      }
    }
    if (trusted && wts_t{m.ts, m.wid} > mig_->best.wts()) {
      mig_->best = {m.ts, m.wid, m.val, m.prev, m.sig};
    }
    if (mig_->acked.size() >= base.quorum()) mig_->done = true;
  } else {
    // Seeding completes at a QUORUM of acks, so a crashed or partitioned
    // server cannot stall the handoff. A server that missed the seed
    // lazily pulls the snapshot from a generation peer on first
    // post-drain access (store/server.h) instead of nacking forever.
    if (mig_->acked.size() >= base.quorum()) mig_->done = true;
  }
}

void client::handle_nack(const message& m) {
  const auto it = pending_.find(m.obj);
  if (it == pending_.end()) return;
  auto& op = it->second;
  if (op.parked || m.attempt != op.attempt) return;  // stale or already held
  // The nack names the server's epoch; pull the map in case it is news.
  // refresh_map may itself re-issue this op (bumping attempt), in which
  // case the nack is spent.
  refresh_map();
  if (m.attempt != op.attempt) return;
  if (m.epoch >= epoch()) {
    if (op.epoch < epoch()) {
      // The attempt was issued under a superseded map but the object's
      // protocol did not change (refresh_map would have re-issued it
      // otherwise) -- it was force-moved by the coordinator (see
      // store/server.h). Re-issue under the current epoch: the fresh
      // attempt is served, or buffered behind the object's lazy seed
      // fetch, without depending on a resume that may already be past.
      reissue(m.obj, op);
    } else {
      // Nacked at the attempt's own epoch: a later reconfiguration
      // fenced the object (or its fetch buffer overflowed); the
      // migration that fences it resumes us.
      park(m.obj, op);
    }
  }
  // m.epoch < epoch(): stale nack from a server we have since overtaken;
  // the re-issued attempt will be answered on its own.
}

void client::route(const process_id& from, const message& m) {
  // Deliveries go to EXISTING automata only: begin_* creates them, and a
  // message for a dropped (migrated/parked) automaton is by construction
  // aimed at an abandoned attempt.
  const auto it = objects_.find(m.obj);
  if (it == objects_.end()) return;
  // Replies stamped with an epoch older than this automaton's birth were
  // produced for the superseded generation (possibly a different
  // protocol); feeding them in would corrupt the fresh instance.
  if (m.epoch < it->second.birth) return;
  std::uint32_t attempt = 0;
  const auto p = pending_.find(m.obj);
  if (p != pending_.end()) attempt = p->second.attempt;
  // Invocations and reissues recreate inner automata with fresh
  // counters, so a straggler reply addressed to an abandoned attempt at
  // the SAME epoch could alias the live attempt's counters. The attempt
  // stamp -- per-object and monotonic across ops, so stragglers of
  // EARLIER ops cannot alias either -- disambiguates (mirroring the
  // check handle_nack performs).
  if (m.attempt != attempt) return;
  // Follow-up rounds the reply triggers stay on the op's trace; the
  // pending record is authoritative, the reply's stamp the fallback.
  std::uint64_t trace = m.trace;
  std::uint16_t span = m.span;
  if (p != pending_.end()) {
    trace = p->second.trace;
    span = p->second.span;
  }
  tagging_netout tagged(outbox_, m.obj, epoch(), attempt, false, trace, span);
  it->second.a->on_message(tagged, from, m);
}

bool client::dispatch_one(const process_id& from, const message& m) {
  if (m.type == msg_type::stats_ack) {
    if (from.is_server() && m.rcounter == stats_seq_) stats_ = m.val;
    return false;  // scrape I/O never completes a front-end op
  }
  if (m.type == msg_type::epoch_nack) {
    handle_nack(m);
    return true;
  }
  if (m.type == msg_type::state_ack || m.type == msg_type::seed_ack) {
    handle_mig_ack(from, m);
    return false;  // migration I/O never completes a front-end op
  }
  route(from, m);
  // Server replies carry the server's epoch: learn newer maps lazily,
  // AFTER routing so the op the reply belongs to is not re-issued from
  // under it.
  if (m.epoch > epoch()) refresh_map();
  return true;
}

void client::on_message(netout& net, const process_id& from,
                        const message& m) {
  on_batch(net, from, std::span<const message>(&m, 1));
}

void client::on_batch(netout& net, const process_id& from,
                      std::span<const message> msgs) {
  std::vector<object_id> touched;
  touched.reserve(msgs.size());
  for (const auto& m : msgs) {
    if (dispatch_one(from, m)) touched.push_back(m.obj);
  }
  // One flush for the whole batch: replies the k messages triggered
  // coalesce into (at most) one envelope per destination.
  flush(net);
  for (std::size_t i = 0; i < touched.size(); ++i) {
    // Poll each object once even if the batch carried several messages
    // for it.
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) seen = seen || touched[j] == touched[i];
    if (!seen) poll_object(touched[i]);
  }
}

void client::poll_object(object_id obj) {
  const auto it = pending_.find(obj);
  if (it == pending_.end() || it->second.parked) return;
  const auto& op = it->second;
  const auto a = objects_.find(obj);
  if (a == objects_.end()) return;
  auto& inner = *a->second.a;
  store_result res;
  res.key = op.key;
  res.is_put = op.is_put;
  if (op.is_put) {
    auto* w = as_writer(&inner);
    if (w->writes_completed() <= op.before) return;
    res.rounds = w->last_write_rounds();
  } else {
    auto* r = as_reader(&inner);
    if (r->reads_completed() <= op.before) return;
    const auto& rr = r->last_read();
    FASTREG_CHECK(rr.has_value());
    res.ts = rr->ts;
    res.wid = rr->wid;
    res.val = rr->val;
    res.rounds = rr->rounds;
  }
  completions_.push_back(std::move(res));
  pending_.erase(it);
}

}  // namespace fastreg::store
