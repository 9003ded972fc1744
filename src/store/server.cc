#include "store/server.h"

#include "common/check.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace fastreg::store {

namespace {

/// Client data messages held per object while a lazy seed fetch is in
/// flight; overflow is nacked (the client parks and is resumed by the
/// object's migration).
constexpr std::size_t k_max_fetch_waiting = 64;
/// Gossip held per object during a fetch; overflow is dropped (gossip
/// is max-merging and self-heals once the instance is seeded).
constexpr std::size_t k_max_fetch_gossip = 16;

}  // namespace

server::server(std::shared_ptr<const shard_map> shards, std::uint32_t index)
    : map_(std::move(shards)), index_(index) {
  auto& reg = obs::registry::instance();
  const std::string lbl = "node=\"" + to_string(server_id(index_)) + "\"";
  sm_.ops = &reg.get_counter("fastreg_store_ops_total", lbl);
  sm_.fetch_overflow =
      &reg.get_counter("fastreg_store_fetch_overflow_nacks_total", lbl);
  sm_.serve_ns = &reg.get_histogram("fastreg_store_serve_ns", lbl);
  rec_ = &obs::recorder_for(server_id(index_));
  if (map_->config().persist.enabled()) {
    durable_ = std::make_unique<persist::server_durability>(
        map_->config().persist, index_);
    recover_from_disk();
  }
}

void server::recover_from_disk() {
  const auto& rec = durable_->recovered();
  if (!rec.found) return;  // fresh server: bootstrap normally
  if (rec.epoch != map_->epoch()) {
    // Epoch fence: the fleet installed a newer map while this server was
    // down (or this process was handed a directory from another life).
    // Which objects moved between the recovered epoch and now is
    // unknowable without the intermediate maps, so the only safe rejoin
    // is to discard and re-bootstrap: a server without state is exactly
    // the crashed replica the protocols' t budget already covers, and
    // the lazy seed-fetch path repopulates moved objects on demand.
    durable_->discard_recovered();
    return;
  }
  for (const auto& [obj, snap] : rec.objects) {
    auto& r = objects_[obj];
    auto& inst = live(obj, r);
    if (snap.ts != k_initial_ts) inst.s->seed_state(snap);
    r.persisted = snap.wts();
    ++recovered_objects_;
  }
}

void server::maybe_persist(object_id obj, object_state& r) {
  if (!durable_) return;
  auto snap = r.cur.s->peek_state();
  const wts_t w = snap.wts();
  if (!(r.persisted < w)) return;  // nothing new became durable here
  durable_->append_op(map_->epoch(), obj, snap);
  r.persisted = w;
  maybe_snapshot();
}

void server::maybe_snapshot() {
  if (!durable_ || !durable_->snapshot_due()) return;
  // The count sits inside the snapshot's CRC'd payload, ahead of the
  // objects, so it is taken in a pass of its own; both passes walk
  // objects_ unmodified, hence in the same order.
  const auto count = static_cast<std::uint32_t>(objects_hosted());
  durable_->write_snapshot(
      map_->epoch(), count, [this](persist::snapshot_writer& w) {
        objects_.for_each([&](object_id obj, const object_state& r) {
          if (r.cur.a) w.add(obj, r.cur.s->peek_state());
        });
      });
}

server::instance& server::live(object_id obj, object_state& r) {
  if (!r.cur.a) {
    r.cur.a = map_->protocol_for_object(obj).make_server(map_->config().base,
                                                         index_, obj);
    r.cur.s = as_seedable(r.cur.a.get());
    FASTREG_CHECK(r.cur.s != nullptr);
  }
  return r.cur;
}

bool server::moved(object_id obj, const object_state& r) const {
  return prev_map_ != nullptr &&
         (object_moves(*prev_map_, *map_, obj) ||
          (r.handoff && r.handoff->force_moved));
}

std::size_t server::seeded_count() const {
  std::size_t n = 0;
  objects_.for_each(
      [&](object_id, const object_state& r) { n += r.seeded() ? 1 : 0; });
  return n;
}

std::size_t server::objects_hosted() const {
  std::size_t n = 0;
  objects_.for_each(
      [&](object_id, const object_state& r) { n += r.cur.a ? 1 : 0; });
  return n;
}

const automaton* server::replica(object_id obj) const {
  const object_state* r = objects_.find(obj);
  return r != nullptr ? r->cur.a.get() : nullptr;
}

std::vector<object_id> server::list_objects() const {
  std::vector<object_id> out;
  objects_.for_each([&](object_id obj, const object_state& r) {
    if (r.cur.a || (r.handoff && r.handoff->prev.a)) out.push_back(obj);
  });
  return out;
}

std::vector<object_id> server::unseeded_moved_objects() const {
  // Objects whose superseded state is still set aside un-seeded (a moved
  // object never hosted here has no state to regress to: a fresh bottom
  // instance in a later generation is indistinguishable from a server
  // the register was simply never written to), plus objects with a lazy
  // fetch still buffered -- the next install nacks their buffered
  // traffic, so the next migration must re-fence and resume them.
  std::vector<object_id> out;
  objects_.for_each([&](object_id obj, const object_state& r) {
    const auto* h = r.handoff.get();
    if (h != nullptr && ((h->prev.a && !h->seed) || h->fetch)) {
      out.push_back(obj);
    }
  });
  return out;
}

void server::install_map(std::shared_ptr<const shard_map> next,
                         const std::unordered_set<object_id>& force_move) {
  FASTREG_EXPECTS(next != nullptr);
  FASTREG_EXPECTS(next->epoch() == map_->epoch() + 1);
  prev_map_ = std::move(map_);
  map_ = std::move(next);
  std::vector<object_id> fenced;
  // Records left with neither a replica nor a block are erased after the
  // pass: the table forbids erasing during for_each.
  std::vector<object_id> dead;
  objects_.for_each([&](object_id obj, object_state& r) {
    if (const auto* h = r.handoff.get(); h != nullptr && h->fetch) {
      // A retired generation's fetch cannot resolve anymore; nack what
      // it buffered (gossip is simply dropped: it means nothing across
      // generations). The nacks carry the NEW epoch, so the clients
      // refetch the map and re-issue or park; every fetch object was
      // reported through unseeded_moved_objects(), so the new migration
      // force-moves it, hands it off and resumes whoever parked.
      for (const auto& [from, m] : h->fetch->waiting) send_nack(from, m);
    }
    r.handoff.reset();  // superseded generation retired
    if (r.cur.a && (object_moves(*prev_map_, *map_, obj) ||
                    force_move.contains(obj))) {
      r.block().prev = std::exchange(r.cur, {});
      r.persisted = {};
      fenced.push_back(obj);
    }
    if (!r.cur.a && !r.handoff) dead.push_back(obj);
  });
  for (const auto obj : dead) objects_.erase(obj);
  for (const auto obj : force_move) objects_[obj].block().force_moved = true;
  if (durable_) {
    // The mark advances the recovered epoch on replay and voids the
    // fenced objects' recovered state: their new-generation seeds land
    // as post-mark seed records. Unmoved objects' records stay valid
    // across the boundary.
    durable_->append_epoch_mark(map_->epoch(), fenced);
  }
}

void server::send_nack(const process_id& to, const message& m) {
  if (obs::recording_active()) {
    rec_->record(obs::rec_event::nack, m.trace, m.span,
                 static_cast<std::uint8_t>(m.type), to, m.obj,
                 map_->epoch(), m.ts);
  }
  message nack;
  nack.type = msg_type::epoch_nack;
  nack.obj = m.obj;
  nack.epoch = map_->epoch();
  nack.attempt = m.attempt;
  nack.trace = m.trace;
  nack.span = m.span;
  outbox_.add(to, std::move(nack));
}

void server::handle_state_req(const process_id& from, const message& m,
                              const object_state& r) {
  register_snapshot snap;
  if (r.handoff && r.handoff->prev.a) {
    snap = r.handoff->prev.s->peek_state();
  } else if (!moved(m.obj, r) && r.cur.a) {
    // Defensive: a state read of an unmoved object answers the live
    // instance (the coordinator normally only reads moved keys).
    snap = r.cur.s->peek_state();
  }
  // Moved but never hosted: this server holds no old-generation state, so
  // the default snapshot (the initial timestamp) is the honest answer.
  message ack;
  ack.type = msg_type::state_ack;
  ack.obj = m.obj;
  ack.epoch = map_->epoch();
  ack.mig = true;
  ack.trace = m.trace;
  ack.span = m.span;
  ack.rcounter = m.rcounter;
  ack.ts = snap.ts;
  ack.wid = snap.wid;
  ack.val = snap.val;
  ack.prev = snap.prev;
  ack.sig = snap.sig;
  outbox_.add(from, std::move(ack));
}

void server::adopt_seed(const message& cause, object_state& r,
                        const register_snapshot& snap) {
  if (r.seeded()) return;
  const object_id obj = cause.obj;
  // Replace whatever stray instance exists (none should: data traffic
  // for a draining object is held back until a seed lands).
  r.cur = {};
  auto& inst = live(obj, r);
  if (snap.ts != k_initial_ts) inst.s->seed_state(snap);
  auto& h = r.block();
  h.seed = snap;
  if (durable_) {
    durable_->append_seed(map_->epoch(), obj, snap);
    r.persisted = snap.wts();
    maybe_snapshot();
  }
  // Push the seed to every peer whose fetch_req this server answered
  // empty-handed; their buffered traffic is waiting on it.
  if (h.subs.size() != 0) {
    message note;
    note.type = msg_type::fetch_ack;
    note.obj = obj;
    note.epoch = map_->epoch();
    note.mig = true;
    note.trace = cause.trace;
    note.span = cause.span;
    note.rcounter = k_fetch_seeded;
    note.ts = snap.ts;
    note.wid = snap.wid;
    note.val = snap.val;
    note.prev = snap.prev;
    note.sig = snap.sig;
    h.subs.for_each([&](std::uint32_t peer) {
      outbox_.add(server_id(peer), message(note));
    });
    h.subs.clear();
  }
}

void server::finish_fetch(object_state& r) {
  if (!r.handoff || !r.handoff->fetch) return;
  auto st = std::move(*r.handoff->fetch);
  r.handoff->fetch.reset();
  for (auto& [from, m] : st.gossip_waiting) handle_one(from, m);
  for (auto& [from, m] : st.waiting) handle_one(from, m);
}

void server::handle_seed_req(const process_id& from, const message& m,
                             object_state& r) {
  // Only seeds of the CURRENT generation install. With quorum
  // completion, a seed_req may outlive the migration it belongs to;
  // letting a delayed previous-generation seed land after the next
  // install would record stale state as this generation's seed (and
  // ack it into the new seed quorum). Drop it -- nobody waits for its
  // ack anymore.
  if (m.epoch != map_->epoch()) return;
  // The seed install is the causal pivot of a park -> resume sequence;
  // record it as a serve so the merged timeline shows the order.
  if (obs::recording_active()) {
    rec_->record(obs::rec_event::serve, m.trace, m.span,
                 static_cast<std::uint8_t>(m.type), from, m.obj,
                 map_->epoch(), m.ts);
  }
  adopt_seed(m, r, {m.ts, m.wid, m.val, m.prev, m.sig});
  // A lazy fetch racing the coordinator's own seed resolves here.
  finish_fetch(r);
  message ack;
  ack.type = msg_type::seed_ack;
  ack.obj = m.obj;
  ack.epoch = map_->epoch();
  ack.mig = true;
  ack.trace = m.trace;
  ack.span = m.span;
  ack.rcounter = m.rcounter;
  outbox_.add(from, std::move(ack));
}

void server::enqueue_fetch(const process_id& from, const message& m,
                           object_state& r) {
  // The message is about to wait behind the epoch fence: the forensic
  // marker for "this op stalled here until the seed landed".
  if (obs::recording_active()) {
    rec_->record(obs::rec_event::fence, m.trace, m.span,
                 static_cast<std::uint8_t>(m.type), from, m.obj,
                 map_->epoch(), m.ts);
  }
  auto& h = r.block();
  const bool inserted = !h.fetch;
  auto& st = inserted ? h.fetch.emplace() : *h.fetch;
  if (from.is_server()) {
    // Gossip rides its own (smaller) buffer so a chatty protocol cannot
    // starve client data of buffer space; overflow drops it.
    if (st.gossip_waiting.size() < k_max_fetch_gossip) {
      st.gossip_waiting.emplace_back(from, m);
    }
  } else if (st.waiting.size() >= k_max_fetch_waiting) {
    // Overflow guard; in practice unreachable for client data (clients
    // keep at most one op in flight per object). The nacked client
    // parks, and nothing resumes it until the object's NEXT migration --
    // so count and alarm: a nonzero counter means a deployment actually
    // reached this state and someone may be parked for a long time.
    sm_.fetch_overflow->inc();
    LOG_WARN("server %u: fetch buffer overflow for object %llu, nacking "
             "%s (parked until the next reconfiguration); %llu overflow "
             "nacks total",
             index_, static_cast<unsigned long long>(m.obj),
             to_string(from).c_str(),
             static_cast<unsigned long long>(sm_.fetch_overflow->value()));
    send_nack(from, m);
    return;
  } else {
    st.waiting.emplace_back(from, m);
  }
  if (!inserted) return;  // fetch already in flight; just wait with it
  message req;
  req.type = msg_type::fetch_req;
  req.obj = m.obj;
  req.epoch = map_->epoch();
  req.mig = true;
  req.trace = m.trace;
  req.span = m.span;
  outbox_.add_broadcast(map_->config().base.S(), std::move(req), index_);
}

void server::handle_fetch_req(const process_id& from, const message& m,
                              object_state& r) {
  if (!from.is_server()) return;
  message ack;
  ack.type = msg_type::fetch_ack;
  ack.obj = m.obj;
  ack.epoch = map_->epoch();
  ack.mig = true;
  ack.trace = m.trace;
  ack.span = m.span;
  if (m.epoch == map_->epoch()) {
    if (r.seeded()) {
      ack.rcounter |= k_fetch_seeded;
      const auto& snap = *r.handoff->seed;
      ack.ts = snap.ts;
      ack.wid = snap.wid;
      ack.val = snap.val;
      ack.prev = snap.prev;
      ack.sig = snap.sig;
    } else {
      // Empty-handed: remember the requester and push the seed to it the
      // moment one is adopted here (adopt_seed), so a fetch that raced
      // the coordinator's seed wave still resolves.
      auto& h = r.block();
      h.subs.insert(from.index);
      if (h.prev.a) ack.rcounter |= k_fetch_prev_hosted;
    }
  }
  // Epoch mismatch: answer with our epoch and no flags; the requester
  // drops acks of another generation (and a behind requester will learn
  // the new epoch via its own install).
  outbox_.add(from, std::move(ack));
}

void server::handle_fetch_ack(const process_id& from, const message& m,
                              object_state& r) {
  if (!from.is_server() || m.epoch != map_->epoch()) return;
  if (!r.handoff || !r.handoff->fetch) return;  // already resolved
  if ((m.rcounter & k_fetch_seeded) != 0) {
    adopt_seed(m, r, {m.ts, m.wid, m.val, m.prev, m.sig});
    finish_fetch(r);
    return;
  }
  auto& st = *r.handoff->fetch;
  if (st.dormant) return;
  if (!st.answered.insert(from.index)) return;
  st.any_prev = st.any_prev || (m.rcounter & k_fetch_prev_hosted) != 0;
  // Decide once a safe majority of peers answered: of the S-1 peers, up
  // to t may be crashed, so S-1-t answers is the most we may wait for.
  const auto& base = map_->config().base;
  if (st.answered.size() < base.S() - 1 - base.t()) return;
  if (st.any_prev || r.handoff->prev.a) {
    // Old-generation state survives somewhere reachable, so the
    // coordinator's handoff for this object is still in flight (it
    // discovers the object from the same indexes). Hold the buffered
    // traffic; we are subscribed at every answerer, and the seed wave
    // reaches a quorum of them, so a seeded notification is coming.
    // Which answers arrived when does not matter -- prev_hosted is a
    // per-generation constant, unlike seeded-ness.
    st.dormant = true;
    return;
  }
  // No seed and no old-generation state on any reachable server: any
  // value a completed old-epoch op established would live on a quorum,
  // which intersects self plus the answered set in at least one server.
  // The object was simply never written -- seed bottom and serve.
  adopt_seed(m, r, {});
  finish_fetch(r);
}

void server::handle_one(const process_id& from, const message& m) {
  if (m.type == msg_type::epoch_nack || m.type == msg_type::state_ack ||
      m.type == msg_type::seed_ack) {
    return;  // not server-bound; a confused or malicious peer sent this
  }
  auto& r = objects_[m.obj];
  switch (m.type) {
    case msg_type::state_req:
      return handle_state_req(from, m, r);
    case msg_type::seed_req:
      return handle_seed_req(from, m, r);
    case msg_type::fetch_req:
      return handle_fetch_req(from, m, r);
    case msg_type::fetch_ack:
      return handle_fetch_ack(from, m, r);
    default:
      break;
  }
  if (from.is_server()) {
    // Server-to-server traffic (max-min gossip) is routed by generation:
    // old-generation gossip finishes against the set-aside instances.
    // The attempt tag rides along even on the gossip path: a client-bound
    // reply a gossip message triggers (maxmin's maybe_reply) must carry
    // the attempt of the read it serves, or the client would drop it.
    if (moved(m.obj, r)) {
      if (m.epoch < map_->epoch()) {
        if (!r.handoff || !r.handoff->prev.a) return;
        tagging_netout tagged(outbox_, m.obj, m.epoch, m.attempt, false,
                              m.trace, m.span);
        r.handoff->prev.a->on_message(tagged, from, m);
        return;
      }
      if (!r.seeded()) {
        // Current-generation gossip is fenced exactly like client data:
        // feeding it to a fresh un-seeded instance would accumulate
        // state (and possibly be counted in peers' quorums) that
        // adopt_seed later destroys. Buffer it with the fetch and merge
        // it into the seeded instance on replay.
        enqueue_fetch(from, m, r);
        return;
      }
    }
    tagging_netout tagged(outbox_, m.obj, map_->epoch(), m.attempt, false,
                          m.trace, m.span);
    live(m.obj, r).a->on_message(tagged, from, m);
    maybe_persist(m.obj, r);
    return;
  }
  // Client data message: apply the epoch fence, then count it against
  // its shard (the load monitor's sampling source). Counting only what
  // is actually served keeps the signal honest: a buffered message is
  // counted once on replay, not once per fence crossing, and stale
  // nacked traffic is not load.
  if (moved(m.obj, r)) {
    // Requests routed under a superseded map are nacked (the client
    // refetches and retries). Current-epoch requests for an object whose
    // seed this server has not received are held back while a lazy fetch
    // pulls the seeded snapshot from a generation peer (or establishes
    // that the object was never written anywhere); see the class comment.
    if (m.epoch != map_->epoch()) {
      send_nack(from, m);
      return;
    }
    if (!r.seeded()) {
      enqueue_fetch(from, m, r);
      return;
    }
  }
  sm_.ops->inc();
  if (obs::recording_active()) {
    rec_->record(obs::rec_event::serve, m.trace, m.span,
                 static_cast<std::uint8_t>(m.type), from, m.obj,
                 map_->epoch(), m.ts);
  }
  tagging_netout tagged(outbox_, m.obj, map_->epoch(), m.attempt, false,
                        m.trace, m.span);
  live(m.obj, r).a->on_message(tagged, from, m);
  maybe_persist(m.obj, r);
}

void server::on_message(netout& net, const process_id& from,
                        const message& m) {
  on_batch(net, from, std::span<const message>(&m, 1));
}

void server::on_batch(netout& net, const process_id& from,
                      std::span<const message> msgs) {
  // One clock pair per delivered batch: the per-message cost of serving
  // under batching is the span divided by the batch size, and the hot
  // path stays at two clock reads per transport unit.
  const std::uint64_t t0 = obs::trace_now();
  for (const auto& m : msgs) handle_one(from, m);
  sm_.serve_ns->observe(obs::trace_now() - t0);
  outbox_.flush(net);
}

}  // namespace fastreg::store
