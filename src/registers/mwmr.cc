#include "registers/mwmr.h"

#include <algorithm>

#include "common/check.h"

namespace fastreg {

// ----------------------------------------------------------- mwmr_writer --

mwmr_writer::mwmr_writer(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {
  FASTREG_EXPECTS(cfg_.S() <= server_set::max_servers);
}

void mwmr_writer::invoke_write(netout& net, value_t v) {
  FASTREG_EXPECTS(phase_ == phase::idle);
  phase_ = phase::query;
  pending_val_ = std::move(v);
  rcounter_ += 1;
  max_num_ = 0;
  acks_.clear();
  message m;
  m.type = msg_type::query_req;
  m.rcounter = rcounter_;
  send_to_servers(net, cfg_.S(), std::move(m));
}

void mwmr_writer::on_message(netout& net, const process_id& from,
                             const message& m) {
  if (!from.is_server() || m.rcounter != rcounter_) return;
  if (phase_ == phase::query && m.type == msg_type::query_ack) {
    if (!acks_.insert(from.index)) return;
    max_num_ = std::max(max_num_, m.ts);
    if (acks_.size() >= cfg_.quorum()) {
      phase_ = phase::write;
      rcounter_ += 1;
      acks_.clear();
      message w;
      w.type = msg_type::write_req;
      w.ts = max_num_ + 1;
      // wid 0 is reserved for "no writer" in defaulted wts_t; writers use
      // index + 1 so that distinct writers always compare differently.
      w.wid = static_cast<std::int32_t>(index_) + 1;
      w.val = std::move(pending_val_);
      w.rcounter = rcounter_;
      send_to_servers(net, cfg_.S(), std::move(w));
    }
    return;
  }
  if (phase_ == phase::write && m.type == msg_type::write_ack) {
    if (!acks_.insert(from.index)) return;
    if (acks_.size() >= cfg_.quorum()) {
      phase_ = phase::idle;
      completed_ += 1;
    }
  }
}

// ------------------------------------------------------------ lww_server --

lww_server::lww_server(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {}

void lww_server::on_message(netout& net, const process_id& from,
                            const message& m) {
  if (from.is_server()) return;
  message reply;
  reply.rcounter = m.rcounter;
  switch (m.type) {
    case msg_type::write_req: {
      // Last write wins among equal timestamp numbers.
      if (m.ts > ts_.num || (m.ts == ts_.num)) {
        ts_ = m.wts();
        val_ = m.val;
      }
      reply.type = msg_type::write_ack;
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
    default:
      return;
  }
  net.send(from, std::move(reply));
}

}  // namespace fastreg
