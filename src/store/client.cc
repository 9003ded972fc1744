#include "store/client.h"

#include <utility>

#include "common/check.h"
#include "registers/fast_swmr.h"

namespace fastreg::store {

client::client(std::shared_ptr<const shard_map> shards, process_id self,
               map_source source)
    : map_(std::move(shards)), source_(std::move(source)), self_(self) {
  FASTREG_EXPECTS(self_.is_reader() || self_.is_writer());
  rec_ = &obs::recorder_for(self_);
}

void client::ensure_inner(object_id obj, object_state& st) {
  if (st.a) return;
  const auto& proto = map_->protocol_for_object(obj);
  const auto& base = map_->config().base;
  if (self_.is_reader()) {
    st.a = proto.make_reader(base, self_.index, obj);
    st.reader = as_reader(st.a.get());
    FASTREG_ENSURES(st.reader != nullptr);
  } else {
    st.a = proto.make_writer(base, self_.index, obj);
    st.writer = as_writer(st.a.get());
    FASTREG_ENSURES(st.writer != nullptr);
    // A migrated object's fresh writer must resume above the handed-off
    // timestamp (and advertise its value as the preceding write).
    if (st.floor) st.writer->seed_writer(*st.floor);
  }
  st.birth = map_->epoch();
}

void client::drop_inner(object_state& st) {
  st.a.reset();
  st.reader = nullptr;
  st.writer = nullptr;
}

void client::invoke_on(object_id obj, object_state& st) {
  ensure_inner(obj, st);
  pending_op& op = *st.op;
  op.epoch = epoch();
  tagging_netout tagged(outbox_, obj, epoch(), op.attempt, false, op.trace,
                        op.span);
  if (op.is_put) {
    op.before = st.writer->writes_completed();
    st.writer->invoke_write(tagged, op.val);
  } else {
    op.before = st.reader->reads_completed();
    st.reader->invoke_read(tagged);
  }
}

std::uint64_t client::begin(std::string key, object_id obj, bool is_put,
                            value_t v) {
  auto& st = objects_[obj];
  FASTREG_EXPECTS(!st.op);
  pending_op& op = st.op.emplace();
  op.key = std::move(key);
  op.is_put = is_put;
  op.val = std::move(v);
  op.attempt = ++st.attempts;
  op.trace = obs::next_trace_id();
  ++pending_ops_;
  invoke_on(obj, st);
  return op.trace;
}

std::uint64_t client::begin_get(std::string key, object_id obj) {
  FASTREG_EXPECTS(self_.is_reader());
  return begin(std::move(key), obj, /*is_put=*/false, value_t{});
}

std::uint64_t client::begin_put(std::string key, object_id obj, value_t v) {
  FASTREG_EXPECTS(self_.is_writer());
  return begin(std::move(key), obj, /*is_put=*/true, std::move(v));
}

void client::flush(netout& net) { outbox_.flush(net); }

void client::take_completions(std::vector<store_result>& out) {
  out.clear();
  out.swap(completions_);
}

// ------------------------------------------------------------- reconfig --

std::size_t client::parked_count() const {
  std::size_t n = 0;
  objects_.for_each([&](object_id, const object_state& st) {
    n += st.op && st.op->parked ? 1 : 0;
  });
  return n;
}

void client::reissue(object_id obj, object_state& st) {
  // The abandoned attempt's automaton state (including any acks it
  // gathered) is protocol state of a superseded generation; discard it
  // and start over against the current map.
  pending_op& op = *st.op;
  const bool resuming = op.parked;
  op.attempt = ++st.attempts;
  op.parked = false;
  ++op.span;  // a new attempt is a new span of the same trace
  if (resuming && obs::recording_active()) {
    rec_->record(obs::rec_event::resume, op.trace, op.span, 0, self_, obj,
                 epoch(), k_initial_ts);
  }
  drop_inner(st);
  invoke_on(obj, st);
}

void client::park(object_id obj, object_state& st) {
  pending_op& op = *st.op;
  if (obs::recording_active()) {
    rec_->record(obs::rec_event::park, op.trace, op.span, 0, self_, obj,
                 epoch(), k_initial_ts);
  }
  op.parked = true;
  drop_inner(st);
}

void client::refresh_map() {
  if (!source_) return;
  auto latest = source_();
  FASTREG_CHECK(latest != nullptr);
  if (latest->epoch() <= map_->epoch()) return;
  // Objects whose protocol changed get fresh automata (their server-side
  // instances were replaced too), and their in-flight ops re-issue under
  // the new map; unchanged objects keep automaton and in-flight ops --
  // their instances carried over on every server.
  // reissue inserts no record, so the collected addresses stay valid.
  std::vector<std::pair<object_id, object_state*>> reissued;
  objects_.for_each([&](object_id obj, object_state& st) {
    if (!st.a || !object_moves(*map_, *latest, obj)) return;
    drop_inner(st);
    if (st.op && !st.op->parked) reissued.emplace_back(obj, &st);
  });
  map_ = std::move(latest);
  for (const auto& [obj, st] : reissued) reissue(obj, *st);
}

void client::resume_parked(object_id obj) {
  refresh_map();
  object_state* st = objects_.find(obj);
  if (st == nullptr || !st->op || !st->op->parked) return;
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
  reissue(obj, *st);
}

void client::seed_writer_floor(object_id obj, const register_snapshot& s) {
  auto& st = objects_[obj];
  st.floor = std::make_unique<register_snapshot>(s);
  // A put already in flight on this object may run on an automaton created
  // BEFORE the floor existed (invoked at the new epoch while the key was
  // draining). Its un-floored requests could slip past the fence once the
  // servers seed, complete against acks that merely echo the request's
  // timestamp, and be lost. Park it: the automaton is discarded, and the
  // coordinator's resume_parked (which always follows a floor install)
  // re-issues the op through a freshly floored automaton.
  if (st.op && !st.op->parked && st.op->is_put) park(obj, st);
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
  outbox_.add_broadcast(map_->config().base.S(), std::move(m));
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
  outbox_.add_broadcast(map_->config().base.S(), std::move(m));
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
  if (!mig_->acked.insert(from.index)) return;
  const auto& base = map_->config().base;
  if (!is_seed_ack) {
    // In the arbitrary-failure model only a valid writer signature makes
    // a state answer trustworthy (a Byzantine server could otherwise
    // fabricate an arbitrarily high timestamp).
    const bool trusted = base.b() == 0 || valid_signed_ts(base, m);
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

client::object_state* client::handle_nack(const message& m) {
  object_state* found = objects_.find(m.obj);
  if (found == nullptr) return nullptr;
  object_state& st = *found;
  if (!st.op) return &st;
  pending_op& op = *st.op;
  // Stale, or already held.
  if (op.parked || m.attempt != op.attempt) return &st;
  // The nack names the server's epoch; pull the map in case it is news.
  // refresh_map may itself re-issue this op (bumping attempt), in which
  // case the nack is spent.
  refresh_map();
  if (m.attempt != op.attempt) return &st;
  if (m.epoch >= epoch()) {
    if (op.epoch < epoch()) {
      // The attempt was issued under a superseded map but the object's
      // protocol did not change (refresh_map would have re-issued it
      // otherwise) -- it was force-moved by the coordinator (see
      // store/server.h). Re-issue under the current epoch: the fresh
      // attempt is served, or buffered behind the object's lazy seed
      // fetch, without depending on a resume that may already be past.
      reissue(m.obj, st);
    } else {
      // Nacked at the attempt's own epoch: a later reconfiguration
      // fenced the object (or its fetch buffer overflowed); the
      // migration that fences it resumes us.
      park(m.obj, st);
    }
  }
  // m.epoch < epoch(): stale nack from a server we have since overtaken;
  // the re-issued attempt will be answered on its own.
  return &st;
}

client::object_state* client::route(const process_id& from,
                                     const message& m) {
  object_state* found = objects_.find(m.obj);
  if (found == nullptr) return nullptr;
  object_state& st = *found;
  // Deliveries go to LIVE automata only: begin_* creates them, and a
  // message for a dropped (migrated/parked) automaton is by construction
  // aimed at an abandoned attempt.
  if (!st.a) return &st;
  // Replies stamped with an epoch older than this automaton's birth were
  // produced for the superseded generation (possibly a different
  // protocol); feeding them in would corrupt the fresh instance.
  if (m.epoch < st.birth) return &st;
  // Invocations and reissues recreate inner automata with fresh
  // counters, so a straggler reply addressed to an abandoned attempt at
  // the SAME epoch could alias the live attempt's counters. The attempt
  // stamp -- per-object and monotonic across ops, so stragglers of
  // EARLIER ops cannot alias either -- disambiguates (mirroring the
  // check handle_nack performs).
  const std::uint32_t attempt = st.op ? st.op->attempt : 0;
  if (m.attempt != attempt) return &st;
  // Follow-up rounds the reply triggers stay on the op's trace; the
  // pending record is authoritative, the reply's stamp the fallback.
  const std::uint64_t trace = st.op ? st.op->trace : m.trace;
  const std::uint16_t span = st.op ? st.op->span : m.span;
  tagging_netout tagged(outbox_, m.obj, epoch(), attempt, false, trace, span);
  st.a->on_message(tagged, from, m);
  return &st;
}

client::object_state* client::dispatch_one(const process_id& from,
                                           const message& m) {
  if (m.type == msg_type::epoch_nack) return handle_nack(m);
  if (m.type == msg_type::state_ack || m.type == msg_type::seed_ack) {
    handle_mig_ack(from, m);
    return nullptr;  // migration I/O never completes a front-end op
  }
  object_state* st = route(from, m);
  // Server replies carry the server's epoch: learn newer maps lazily,
  // AFTER routing so the op the reply belongs to is not re-issued from
  // under it.
  if (m.epoch > epoch()) refresh_map();
  return st;
}

void client::on_message(netout& net, const process_id& from,
                        const message& m) {
  on_batch(net, from, std::span<const message>(&m, 1));
}

void client::on_batch(netout& net, const process_id& from,
                      std::span<const message> msgs) {
  touched_.clear();
  for (const auto& m : msgs) {
    if (object_state* st = dispatch_one(from, m)) {
      touched_.emplace_back(m.obj, st);
    }
  }
  // One flush for the whole batch: replies the k messages triggered
  // coalesce into (at most) one envelope per destination.
  flush(net);
  for (std::size_t i = 0; i < touched_.size(); ++i) {
    // Poll each object once even if the batch carried several messages
    // for it.
    bool seen = false;
    for (std::size_t j = 0; j < i && !seen; ++j) {
      seen = touched_[j].second == touched_[i].second;
    }
    if (!seen) poll_object(touched_[i].first, *touched_[i].second);
  }
}

void client::poll_object(object_id obj, object_state& st) {
  if (!st.op || st.op->parked || !st.a) return;
  pending_op& op = *st.op;
  store_result res;
  if (op.is_put) {
    if (st.writer->writes_completed() <= op.before) return;
    res.rounds = st.writer->last_write_rounds();
  } else {
    if (st.reader->reads_completed() <= op.before) return;
    const auto& rr = st.reader->last_read();
    FASTREG_CHECK(rr.has_value());
    res.ts = rr->ts;
    res.wid = rr->wid;
    res.val = rr->val;
    res.rounds = rr->rounds;
  }
  res.key = std::move(op.key);
  res.obj = obj;
  res.is_put = op.is_put;
  completions_.push_back(std::move(res));
  st.op.reset();
  --pending_ops_;
}

}  // namespace fastreg::store
