#include "registers/regular.h"

#include "common/check.h"

namespace fastreg {

// -------------------------------------------------------- regular_reader --

regular_reader::regular_reader(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {
  FASTREG_EXPECTS(cfg_.S() <= server_set::max_servers);
}

void regular_reader::invoke_read(netout& net) {
  FASTREG_EXPECTS(!pending_);
  pending_ = true;
  rcounter_ += 1;
  best_ts_ = {};
  best_val_.clear();
  acks_.clear();
  message m;
  m.type = msg_type::read_req;
  m.rcounter = rcounter_;
  send_to_servers(net, cfg_.S(), std::move(m));
}

void regular_reader::on_message(netout&, const process_id& from,
                                const message& m) {
  if (!pending_ || m.type != msg_type::read_ack || !from.is_server()) return;
  if (m.rcounter != rcounter_ || !acks_.insert(from.index)) return;
  if (m.wts() > best_ts_) {
    best_ts_ = m.wts();
    best_val_ = m.val;
  }
  if (acks_.size() >= cfg_.quorum()) {
    pending_ = false;
    completed_ += 1;
    last_result_ = read_result{best_ts_.num, best_ts_.wid, best_val_, 1};
  }
}

// --------------------------------------------- single_reader_fast_reader --

single_reader_fast_reader::single_reader_fast_reader(system_config cfg,
                                                     std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {
  FASTREG_EXPECTS(cfg_.S() <= server_set::max_servers);
}

void single_reader_fast_reader::invoke_read(netout& net) {
  FASTREG_EXPECTS(!pending_);
  pending_ = true;
  rcounter_ += 1;
  best_ts_ = {};
  best_val_.clear();
  acks_.clear();
  message m;
  m.type = msg_type::read_req;
  m.rcounter = rcounter_;
  send_to_servers(net, cfg_.S(), std::move(m));
}

void single_reader_fast_reader::on_message(netout&, const process_id& from,
                                           const message& m) {
  if (!pending_ || m.type != msg_type::read_ack || !from.is_server()) return;
  if (m.rcounter != rcounter_ || !acks_.insert(from.index)) return;
  if (m.wts() > best_ts_) {
    best_ts_ = m.wts();
    best_val_ = m.val;
  }
  if (acks_.size() >= cfg_.quorum()) {
    // Section 1: return the quorum maximum unless it is older than the
    // previously returned value; then return the previous value again.
    // With a single reader this totally orders reads and is atomic.
    if (best_ts_ > last_ts_) {
      last_ts_ = best_ts_;
      last_val_ = best_val_;
    }
    pending_ = false;
    completed_ += 1;
    last_result_ = read_result{last_ts_.num, last_ts_.wid, last_val_, 1};
  }
}

}  // namespace fastreg
