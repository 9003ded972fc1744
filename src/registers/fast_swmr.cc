#include "registers/fast_swmr.h"

#include "common/check.h"

namespace fastreg {

bool valid_signed_ts(const system_config& cfg, const message& m) {
  if (m.ts == k_initial_ts) {
    // The initial timestamp is not signed (Section 6.1).
    return m.sig.empty() && m.val.empty() && m.prev.empty();
  }
  if (m.ts < 0) return false;
  FASTREG_EXPECTS(cfg.sigs != nullptr);
  const auto payload = signed_payload(m);
  return cfg.sigs->verify(
      writer_id(0), std::span<const std::uint8_t>(payload.data(), payload.size()),
      std::span<const std::uint8_t>(m.sig.data(), m.sig.size()));
}

// ---------------------------------------------------------------- writer --

fast_swmr_writer::fast_swmr_writer(system_config cfg, bool signed_ts,
                                   object_id obj)
    : cfg_(std::move(cfg)), signed_(signed_ts), obj_(obj) {
  FASTREG_EXPECTS(!signed_ || cfg_.sigs != nullptr);
  FASTREG_EXPECTS(cfg_.S() <= server_set::max_servers);
}

void fast_swmr_writer::invoke_write(netout& net, value_t v) {
  FASTREG_EXPECTS(!pending_);
  pending_ = true;
  cur_val_ = std::move(v);
  acks_.clear();
  message m;
  m.type = msg_type::write_req;
  m.ts = ts_;
  m.val = cur_val_;
  m.prev = last_val_;
  m.rcounter = 0;  // the writer's rCounter is always 0 (Section 4)
  if (signed_) {
    // The signature binds the object id: set it before signing so
    // verifiers (which hash m.obj) accept the message only on this
    // object's stream.
    m.obj = obj_;
    const auto payload = signed_payload(m);
    m.sig = cfg_.sigs->sign(
        writer_id(0),
        std::span<const std::uint8_t>(payload.data(), payload.size()));
  }
  net.broadcast(cfg_.S(), std::move(m));
}

void fast_swmr_writer::on_message(netout&, const process_id& from,
                                  const message& m) {
  if (!pending_ || m.type != msg_type::write_ack || !from.is_server()) return;
  // Line 6: stale acks carry stale timestamps, and a malicious server
  // cannot forge a valid ack for a future write.
  if (m.ts != ts_ || m.rcounter != 0) return;
  if (signed_ && !valid_signed_ts(cfg_, m)) return;
  acks_.insert(from.index);
  if (acks_.size() >= cfg_.quorum()) {
    pending_ = false;
    last_val_ = cur_val_;
    ts_ += 1;  // line 7
    completed_ += 1;
  }
}

void fast_swmr_writer::seed_writer(const register_snapshot& migrated) {
  FASTREG_EXPECTS(!pending_);
  if (migrated.ts + 1 > ts_) {
    // ts_ is the NEXT write's timestamp; the migrated value plays the role
    // of the immediately preceding write (the `prev` tag of Section 4).
    ts_ = migrated.ts + 1;
    last_val_ = migrated.val;
  }
}

// ---------------------------------------------------------------- reader --

fast_swmr_reader::fast_swmr_reader(system_config cfg, std::uint32_t index,
                                   bool signed_ts)
    : cfg_(std::move(cfg)), index_(index), signed_(signed_ts) {
  FASTREG_EXPECTS(!signed_ || cfg_.sigs != nullptr);
  FASTREG_EXPECTS(cfg_.S() <= server_set::max_servers);
}

void fast_swmr_reader::invoke_read(netout& net) {
  FASTREG_EXPECTS(!pending_);
  pending_ = true;
  rcounter_ += 1;  // line 13
  acks_.clear();
  ack_from_.clear();
  max_.tv.ts = k_initial_ts;
  max_.tv.val.clear();
  max_.tv.prev.clear();
  max_.sig.clear();
  message m;
  m.type = msg_type::read_req;
  // Line 13-14: the read message carries the reader's previous maximum
  // (with its value tags and signature), which servers treat exactly like
  // a write-back.
  m.ts = maxts_.tv.ts;
  m.val = maxts_.tv.val;
  m.prev = maxts_.tv.prev;
  m.sig = maxts_.sig;
  m.rcounter = rcounter_;
  net.broadcast(cfg_.S(), std::move(m));
}

void fast_swmr_reader::on_message(netout&, const process_id& from,
                                  const message& m) {
  if (!pending_ || m.type != msg_type::read_ack || !from.is_server()) return;
  if (m.rcounter != rcounter_) return;          // stale ack from an old read
  if (ack_from_.contains(from.index)) return;   // one ack per server
  // Line 15 "receivevalid" (Figure 5): discard acks that are provably
  // malicious -- invalid writer signature, a timestamp lower than the one
  // this reader just wrote back, or a seen set not containing the reader.
  if (signed_ && (!valid_signed_ts(cfg_, m) || m.ts < maxts_.tv.ts ||
                  !m.seen.contains(self()))) {
    discarded_ += 1;
    return;
  }
  ack_from_.insert(from.index);
  acks_.push_back({m.ts, m.seen});
  // decide() returns the value tags of the LAST ack carrying maxTS; an
  // ack at or above every earlier one may be it.
  if (m.ts >= max_.tv.ts) {
    max_.tv.ts = m.ts;
    max_.tv.val = m.val;
    max_.tv.prev = m.prev;
    if (signed_) max_.sig = m.sig;
  }
  if (acks_.size() >= cfg_.quorum()) decide();
}

void fast_swmr_reader::decide() {
  // Line 17: maxTS over received READACKs (tracked as they arrived).
  const ts_t max_ts = max_.tv.ts;

  // Line 18: the seen sets of the messages carrying maxTS.
  max_seen_.clear();
  for (const auto& a : acks_) {
    if (a.ts == max_ts) max_seen_.push_back(a.seen);
  }

  maxts_ = max_;  // written back by the next read (line 13)

  // Lines 19-22: return maxTS's value iff the predicate holds, otherwise
  // the previous write's value. Figure 5 weakens the threshold by b.
  last_witness_ = fast_read_predicate_witness(
      std::span<const seen_set>(max_seen_), cfg_.S(), cfg_.t(),
      signed_ ? cfg_.b() : 0, cfg_.R());
  read_result res;
  res.rounds = 1;
  if (last_witness_ > 0 || max_ts == k_initial_ts) {
    res.ts = max_ts;
    res.val = maxts_.tv.val;
  } else {
    res.ts = max_ts - 1;
    res.val = maxts_.tv.prev;
  }
  pending_ = false;
  completed_ += 1;
  last_result_ = std::move(res);
}

// ---------------------------------------------------------------- server --

fast_swmr_server::fast_swmr_server(system_config cfg, std::uint32_t index,
                                   bool signed_ts)
    : cfg_(std::move(cfg)),
      index_(index),
      signed_(signed_ts),
      counters_(cfg_.R() + 1, 0) {  // slot 0 = writer, slots 1..R = readers
  FASTREG_EXPECTS(!signed_ || cfg_.sigs != nullptr);
}

void fast_swmr_server::on_message(netout& net, const process_id& from,
                                  const message& m) {
  if (m.type != msg_type::write_req && m.type != msg_type::read_req) return;
  if (from.is_server()) return;  // clients only
  const std::uint32_t slot = client_slot(from);
  if (slot >= counters_.size()) return;
  // Line 26: process only if rCounter' >= counter[pid(q)].
  if (m.rcounter < counters_[slot]) return;
  // Figure 5's "receivevalid": drop timestamps the writer did not sign.
  if (signed_ && !valid_signed_ts(cfg_, m)) return;

  // Lines 27-30.
  if (m.ts > cur_.tv.ts) {
    cur_.tv = tagged_value{m.ts, m.val, m.prev};
    if (signed_) cur_.sig = m.sig;
    seen_.clear();
  }
  seen_.insert(from);
  counters_[slot] = m.rcounter;  // line 31

  // Lines 32-35: reply with the stored timestamp, tags and seen set.
  message reply;
  reply.type = m.type == msg_type::read_req ? msg_type::read_ack
                                            : msg_type::write_ack;
  reply.ts = cur_.tv.ts;
  reply.val = cur_.tv.val;
  reply.prev = cur_.tv.prev;
  reply.sig = cur_.sig;
  reply.seen = seen_;
  reply.rcounter = m.rcounter;
  net.send(from, std::move(reply));
}

register_snapshot fast_swmr_server::peek_state() const {
  return {cur_.tv.ts, 0, cur_.tv.val, cur_.tv.prev, cur_.sig};
}

void fast_swmr_server::seed_state(const register_snapshot& s) {
  cur_.tv = tagged_value{s.ts, s.val, s.prev};
  // A signature travels with the state: it still verifies because it
  // covers (obj, ts, val, prev) and migration never rewrites those.
  cur_.sig = signed_ ? s.sig : std::vector<std::uint8_t>{};
  // The migrated value was read from a quorum of the old generation, so
  // every client is entitled to see it: a full seen set makes the fast
  // read predicate hold until the writer's next (real) write replaces it.
  seen_ = seen_universe();
}

}  // namespace fastreg
