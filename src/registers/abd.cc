#include "registers/abd.h"

#include <algorithm>

#include "common/check.h"

namespace fastreg {

// --------------------------------------------------------- quorum_server --

quorum_server::quorum_server(system_config cfg, std::uint32_t index,
                             bool lww)
    : cfg_(std::move(cfg)), index_(index), lww_(lww) {}

void quorum_server::on_message(netout& net, const process_id& from,
                               const message& m) {
  if (from.is_server()) return;
  message reply;
  reply.rcounter = m.rcounter;
  switch (m.type) {
    case msg_type::write_req:
    case msg_type::wb_req: {
      const bool lww_tie = lww_ && m.type == msg_type::write_req &&
                           m.ts == ts_.num;
      if (m.wts() > ts_ || lww_tie) {
        ts_ = m.wts();
        val_ = m.val;
      }
      reply.type = m.type == msg_type::write_req ? msg_type::write_ack
                                                 : msg_type::wb_ack;
      // Echo the request's timestamp so the client can match the ack to
      // the op even if this server already stores a larger one.
      reply.ts = m.ts;
      reply.wid = m.wid;
      break;
    }
    case msg_type::read_req: {
      reply.type = msg_type::read_ack;
      reply.ts = ts_.num;
      reply.wid = ts_.wid;
      reply.val = val_;
      break;
    }
    case msg_type::query_req: {
      reply.type = msg_type::query_ack;
      reply.ts = ts_.num;
      reply.wid = ts_.wid;
      break;
    }
    default:
      return;
  }
  net.send(from, std::move(reply));
}

register_snapshot quorum_server::peek_state() const {
  // prev mirrors val: the quorum family never serves a value older than
  // its stored one, so the "preceding write" tag is the value itself.
  return {ts_.num, ts_.wid, val_, val_, {}};
}

void quorum_server::seed_state(const register_snapshot& s) {
  ts_ = {s.ts, s.wid};
  val_ = s.val;
}

// ------------------------------------------------------------ abd_writer --

abd_writer::abd_writer(system_config cfg, std::uint32_t index,
                       std::int32_t wid, bool query)
    : cfg_(std::move(cfg)), index_(index), wid_(wid), query_(query) {
  FASTREG_EXPECTS(cfg_.S() <= server_set::max_servers);
}

void abd_writer::invoke_write(netout& net, value_t v) {
  FASTREG_EXPECTS(phase_ == phase::idle);
  val_ = std::move(v);
  if (!query_) {
    ts_ += 1;  // the latest timestamp only while there is a single writer
    send_write(net);
    return;
  }
  phase_ = phase::query;
  ts_ = 0;
  rcounter_ += 1;
  acks_.clear();
  message m;
  m.type = msg_type::query_req;
  m.rcounter = rcounter_;
  net.broadcast(cfg_.S(), std::move(m));
}

void abd_writer::send_write(netout& net) {
  phase_ = phase::write;
  rcounter_ += 1;
  acks_.clear();
  message m;
  m.type = msg_type::write_req;
  m.ts = ts_;
  m.wid = wid_;
  m.val = std::move(val_);
  m.rcounter = rcounter_;
  net.broadcast(cfg_.S(), std::move(m));
}

void abd_writer::on_message(netout& net, const process_id& from,
                            const message& m) {
  if (!from.is_server() || m.rcounter != rcounter_) return;
  if (phase_ == phase::query && m.type == msg_type::query_ack) {
    if (!acks_.insert(from.index)) return;
    ts_ = std::max(ts_, m.ts);
    if (acks_.size() >= cfg_.quorum()) {
      ts_ += 1;
      send_write(net);
    }
    return;
  }
  if (phase_ == phase::write && m.type == msg_type::write_ack &&
      m.ts == ts_) {
    if (!acks_.insert(from.index)) return;
    if (acks_.size() >= cfg_.quorum()) {
      phase_ = phase::idle;
      completed_ += 1;
    }
  }
}

void abd_writer::seed_writer(const register_snapshot& migrated) {
  FASTREG_EXPECTS(phase_ == phase::idle);
  // invoke_write pre-increments, so the next write lands above the
  // migrated timestamp.
  ts_ = std::max(ts_, migrated.ts);
}

// ------------------------------------------------------------ abd_reader --

abd_reader::abd_reader(system_config cfg, std::uint32_t index,
                       read_rule rule)
    : cfg_(std::move(cfg)), index_(index), rule_(rule) {
  FASTREG_EXPECTS(cfg_.S() <= server_set::max_servers);
}

void abd_reader::invoke_read(netout& net) {
  FASTREG_EXPECTS(phase_ == phase::idle);
  phase_ = phase::query;
  rcounter_ += 1;
  if (rule_ != read_rule::monotone_max) {
    best_ts_ = {};
    best_val_.clear();
  }
  acks_.clear();
  message m;
  m.type = msg_type::read_req;
  m.rcounter = rcounter_;
  net.broadcast(cfg_.S(), std::move(m));
}

void abd_reader::on_message(netout& net, const process_id& from,
                            const message& m) {
  if (!from.is_server() || m.rcounter != rcounter_) return;
  if (phase_ == phase::query && m.type == msg_type::read_ack) {
    if (!acks_.insert(from.index)) return;
    const bool adopt = rule_ == read_rule::min
                           ? acks_.size() == 1 || m.wts() < best_ts_
                           : m.wts() > best_ts_;
    if (adopt) {
      best_ts_ = m.wts();
      best_val_ = m.val;
    }
    if (acks_.size() < cfg_.quorum()) return;
    if (rule_ != read_rule::write_back) {
      finish(1);
      return;
    }
    // Round-trip 2: propagate the chosen pair before returning, so that
    // a subsequent read cannot observe an older value.
    phase_ = phase::write_back;
    rcounter_ += 1;
    acks_.clear();
    message wb;
    wb.type = msg_type::wb_req;
    wb.ts = best_ts_.num;
    wb.wid = best_ts_.wid;
    wb.val = best_val_;
    wb.rcounter = rcounter_;
    net.broadcast(cfg_.S(), std::move(wb));
    return;
  }
  if (phase_ == phase::write_back && m.type == msg_type::wb_ack) {
    if (!acks_.insert(from.index)) return;
    if (acks_.size() >= cfg_.quorum()) finish(2);
  }
}

void abd_reader::finish(int rounds) {
  phase_ = phase::idle;
  completed_ += 1;
  last_result_ = read_result{best_ts_.num, best_ts_.wid, best_val_, rounds};
}

}  // namespace fastreg
