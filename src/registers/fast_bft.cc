#include "registers/fast_bft.h"

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

fast_bft_writer::fast_bft_writer(system_config cfg, object_id obj)
    : cfg_(std::move(cfg)), obj_(obj) {
  FASTREG_EXPECTS(cfg_.sigs != nullptr);
  FASTREG_EXPECTS(cfg_.S() <= server_set::max_servers);
}

void fast_bft_writer::invoke_write(netout& net, value_t v) {
  FASTREG_EXPECTS(!pending_);
  pending_ = true;
  cur_val_ = std::move(v);
  acks_.clear();
  message m;
  m.type = msg_type::write_req;
  // The signature binds the object id: set it before signing so verifiers
  // (which hash m.obj) accept the message only on this object's stream.
  m.obj = obj_;
  m.ts = ts_;
  m.val = cur_val_;
  m.prev = last_val_;
  m.rcounter = 0;
  const auto payload = signed_payload(m);
  m.sig = cfg_.sigs->sign(
      writer_id(0),
      std::span<const std::uint8_t>(payload.data(), payload.size()));
  send_to_servers(net, cfg_.S(), std::move(m));
}

void fast_bft_writer::on_message(netout&, const process_id& from,
                                 const message& m) {
  if (!pending_ || m.type != msg_type::write_ack || !from.is_server()) return;
  // Line 6: wait for valid WRITEACKs carrying the current signed ts. The
  // writer knows its own signature is valid; checking ts equality suffices
  // (a malicious server cannot forge an ack with the right ts for a future
  // write, and stale acks carry stale timestamps).
  if (m.ts != ts_ || m.rcounter != 0) return;
  if (!valid_signed_ts(cfg_, m)) return;
  acks_.insert(from.index);
  if (acks_.size() >= cfg_.quorum()) {
    pending_ = false;
    last_val_ = cur_val_;
    ts_ += 1;
    completed_ += 1;
  }
}

void fast_bft_writer::seed_writer(const register_snapshot& migrated) {
  FASTREG_EXPECTS(!pending_);
  if (migrated.ts + 1 > ts_) {
    ts_ = migrated.ts + 1;
    last_val_ = migrated.val;
  }
}

// ---------------------------------------------------------------- reader --

fast_bft_reader::fast_bft_reader(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {
  FASTREG_EXPECTS(cfg_.sigs != nullptr);
  FASTREG_EXPECTS(cfg_.S() <= server_set::max_servers);
}

void fast_bft_reader::invoke_read(netout& net) {
  FASTREG_EXPECTS(!pending_);
  pending_ = true;
  rcounter_ += 1;
  acks_.clear();
  ack_from_.clear();
  max_.tv.ts = k_initial_ts;
  max_.tv.val.clear();
  max_.tv.prev.clear();
  max_.sig.clear();
  // Lines 13-14: write back the highest signed timestamp (with its writer
  // signature) observed by the previous read.
  message m;
  m.type = msg_type::read_req;
  m.ts = maxts_.tv.ts;
  m.val = maxts_.tv.val;
  m.prev = maxts_.tv.prev;
  m.sig = maxts_.sig;
  m.rcounter = rcounter_;
  send_to_servers(net, cfg_.S(), std::move(m));
}

void fast_bft_reader::on_message(netout&, const process_id& from,
                                 const message& m) {
  if (!pending_ || m.type != msg_type::read_ack || !from.is_server()) return;
  if (m.rcounter != rcounter_) return;
  if (ack_from_.contains(from.index)) return;
  // Line 15 "receivevalid": discard acks that are provably malicious --
  // invalid writer signature, a timestamp lower than the one this reader
  // just wrote back, or a seen set not containing the reader itself.
  if (!valid_signed_ts(cfg_, m) || m.ts < maxts_.tv.ts ||
      !m.seen.contains(self())) {
    discarded_ += 1;
    return;
  }
  ack_from_.insert(from.index);
  acks_.push_back({m.ts, m.seen});
  // decide() keeps the signed tags of the LAST ack carrying maxTS; an ack
  // at or above every earlier one may be it.
  if (m.ts >= max_.tv.ts) {
    max_.tv.ts = m.ts;
    max_.tv.val = m.val;
    max_.tv.prev = m.prev;
    max_.sig = m.sig;
  }
  if (acks_.size() >= cfg_.quorum()) decide();
}

void fast_bft_reader::decide() {
  const ts_t max_ts = max_.tv.ts;

  max_seen_.clear();
  for (const auto& a : acks_) {
    if (a.ts == max_ts) max_seen_.push_back(a.seen);
  }

  maxts_ = max_;

  // Line 19 with the arbitrary-failure threshold S - a*t - (a-1)*b.
  last_witness_ =
      fast_read_predicate_witness(std::span<const seen_set>(max_seen_),
                                  cfg_.S(), cfg_.t(), cfg_.b(), cfg_.R());
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

fast_bft_server::fast_bft_server(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index), counters_(cfg_.R() + 1, 0) {
  FASTREG_EXPECTS(cfg_.sigs != nullptr);
}

void fast_bft_server::on_message(netout& net, const process_id& from,
                                 const message& m) {
  if (m.type != msg_type::write_req && m.type != msg_type::read_req) return;
  if (from.is_server()) return;
  const std::uint32_t slot = client_slot(from);
  if (slot >= counters_.size()) return;
  if (m.rcounter < counters_[slot]) return;
  // Line 26 "receivevalid": drop messages whose timestamp is not properly
  // signed by the writer (malicious readers could otherwise inject fake
  // timestamps; in our model readers are correct, but the check is what
  // gives the protocol its stated properties).
  if (!valid_signed_ts(cfg_, m)) return;

  if (m.ts > cur_.tv.ts) {
    cur_ = signed_value{tagged_value{m.ts, m.val, m.prev}, m.sig};
    seen_.clear();
    seen_.insert(from);
  } else {
    seen_.insert(from);
  }
  counters_[slot] = m.rcounter;

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

register_snapshot fast_bft_server::peek_state() const {
  return {cur_.tv.ts, 0, cur_.tv.val, cur_.tv.prev, cur_.sig};
}

void fast_bft_server::seed_state(const register_snapshot& s) {
  // The signature travels with the state: it still verifies because it
  // covers (obj, ts, val, prev) and migration never rewrites those.
  cur_ = signed_value{tagged_value{s.ts, s.val, s.prev}, s.sig};
  seen_ = seen_universe();
}

}  // namespace fastreg
