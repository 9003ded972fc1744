#include "adversary/byzantine.h"

#include <utility>
#include <vector>

#include "common/check.h"

namespace fastreg::adversary {
namespace {

/// Captures an inner automaton's sends so a wrapper can filter them.
class capture_net final : public netout {
 public:
  void send(const process_id& to, message m) override {
    out.emplace_back(to, std::move(m));
  }
  std::vector<std::pair<process_id, message>> out;
};

}  // namespace

// ------------------------------------------------------------ stale_server --

void stale_server::on_message(netout& net, const process_id& from,
                              const message& m) {
  if (m.type != msg_type::read_req && m.type != msg_type::write_req &&
      m.type != msg_type::wb_req && m.type != msg_type::query_req) {
    return;
  }
  message reply;
  switch (m.type) {
    case msg_type::read_req:
      reply.type = msg_type::read_ack;
      break;
    case msg_type::write_req:
      reply.type = msg_type::write_ack;
      break;
    case msg_type::wb_req:
      reply.type = msg_type::wb_ack;
      break;
    default:
      reply.type = msg_type::query_ack;
      break;
  }
  reply.ts = k_initial_ts;  // pretend nothing was ever written
  reply.rcounter = m.rcounter;
  reply.seen.insert(from);
  net.send(from, std::move(reply));
}

// ---------------------------------------------------------- forging_server --

void forging_server::on_message(netout& net, const process_id& from,
                                const message& m) {
  if (m.type != msg_type::read_req && m.type != msg_type::write_req) return;
  message reply;
  reply.type = m.type == msg_type::read_req ? msg_type::read_ack
                                            : msg_type::write_ack;
  reply.ts = m.ts + 1'000'000;  // a timestamp the writer never produced
  reply.val = "forged";
  reply.prev = "forged_prev";
  reply.sig = {0xde, 0xad, 0xbe, 0xef};  // cannot forge a real signature
  reply.rcounter = m.rcounter;
  reply.seen.insert(from);
  net.send(from, std::move(reply));
}

// -------------------------------------------------------- seen_liar_server --

seen_liar_server::seen_liar_server(std::unique_ptr<automaton> inner,
                                   std::uint32_t clients)
    : inner_(std::move(inner)), clients_(clients) {}

void seen_liar_server::on_message(netout& net, const process_id& from,
                                  const message& m) {
  capture_net cap;
  inner_->on_message(cap, from, m);
  for (auto& [to, reply] : cap.out) {
    // Claim every client has already seen our timestamp.
    seen_set lie;
    lie.insert(writer_id(0));
    for (std::uint32_t i = 0; i < clients_; ++i) lie.insert(reader_id(i));
    reply.seen = lie;
    net.send(to, std::move(reply));
  }
}

// -------------------------------------------------------- two_faced_server --

two_faced_server::two_faced_server(std::unique_ptr<automaton> real,
                                   std::unique_ptr<automaton> shadow,
                                   std::unordered_set<process_id> targets)
    : real_(std::move(real)),
      shadow_(std::move(shadow)),
      shadow_targets_(std::move(targets)) {
  FASTREG_EXPECTS(shadow_->self() == real_->self());
}

void two_faced_server::on_message(netout& net, const process_id& from,
                                  const message& m) {
  // The shadow pretends the write never happened: it sees every message
  // except writes. Both copies otherwise process everything, so their
  // seen/counter bookkeeping stays plausible to their respective audiences.
  capture_net real_out;
  real_->on_message(real_out, from, m);
  capture_net shadow_out;
  if (m.type != msg_type::write_req && m.type != msg_type::wb_req) {
    shadow_->on_message(shadow_out, from, m);
  }
  for (auto& [to, reply] : real_out.out) {
    if (!shadow_targets_.contains(to)) net.send(to, std::move(reply));
  }
  for (auto& [to, reply] : shadow_out.out) {
    if (shadow_targets_.contains(to)) net.send(to, std::move(reply));
  }
}

// ----------------------------------------------------- equivocating_server --

equivocating_server::equivocating_server(std::unique_ptr<automaton> inner,
                                         std::uint32_t index)
    : inner_(std::move(inner)), index_(index) {}

void equivocating_server::on_message(netout& net, const process_id& from,
                                     const message& m) {
  if (from.is_reader() && from.index % 2 == 0 &&
      m.type == msg_type::read_req) {
    // Stale lie to even readers.
    message reply;
    reply.type = msg_type::read_ack;
    reply.ts = k_initial_ts;
    reply.rcounter = m.rcounter;
    reply.seen.insert(from);
    net.send(from, std::move(reply));
    return;
  }
  inner_->on_message(net, from, m);
}

}  // namespace fastreg::adversary
