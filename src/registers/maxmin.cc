#include "registers/maxmin.h"

#include "common/check.h"

namespace fastreg {

// --------------------------------------------------------- maxmin_server --

maxmin_server::maxmin_server(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {
  FASTREG_EXPECTS(cfg_.S() <= server_set::max_servers);
}

void maxmin_server::on_message(netout& net, const process_id& from,
                               const message& m) {
  switch (m.type) {
    case msg_type::write_req: {
      if (from.is_server()) return;
      if (m.wts() > ts_) {
        ts_ = m.wts();
        val_ = m.val;
      }
      message reply;
      reply.type = msg_type::write_ack;
      reply.ts = m.ts;
      reply.wid = m.wid;
      reply.rcounter = m.rcounter;
      net.send(from, std::move(reply));
      return;
    }
    case msg_type::read_req: {
      if (!from.is_reader()) return;
      const auto it = gather_for(from.index, m);
      if (it == gathers_.end()) return;
      gather& g = it->second;
      g.got_read_req = true;
      // Broadcast our current timestamp to the other servers, tagged with
      // the read instance it serves. Our own contribution is folded in
      // directly rather than routed through the network.
      message gossip;
      gossip.type = msg_type::gossip;
      gossip.ts = ts_.num;
      gossip.wid = ts_.wid;
      gossip.val = val_;
      gossip.origin = from;
      gossip.rcounter = m.rcounter;
      net.broadcast(cfg_.S(), std::move(gossip), index_);
      if (g.senders.insert(index_) && ts_ > g.max_ts) {
        g.max_ts = ts_;
        g.max_val = val_;
      }
      advance(net, from, m.rcounter, it);
      return;
    }
    case msg_type::gossip: {
      if (!from.is_server()) return;
      const auto it = gather_for(m.origin.index, m);
      if (it == gathers_.end()) return;
      gather& g = it->second;
      if (!g.senders.insert(from.index)) return;
      if (m.wts() > g.max_ts) {
        g.max_ts = m.wts();
        g.max_val = m.val;
      }
      advance(net, m.origin, m.rcounter, it);
      return;
    }
    default:
      return;
  }
}

maxmin_server::gather_map::iterator maxmin_server::gather_for(
    std::uint32_t reader, const message& m) {
  const read_no read{m.attempt, m.rcounter};
  auto [newest, first] = newest_.try_emplace(reader, read);
  if (!first) {
    if (read < newest->second) return gathers_.end();  // superseded
    newest->second = read;
  }
  const gather_key key{reader, m.attempt, m.rcounter};
  gathers_.erase(gathers_.lower_bound({reader, 0, 0}),
                 gathers_.lower_bound(key));
  return gathers_.try_emplace(key).first;
}

void maxmin_server::advance(netout& net, const process_id& reader,
                            std::uint64_t rc, gather_map::iterator it) {
  gather& g = it->second;
  if (!g.replied && g.got_read_req && g.senders.size() >= gossip_quorum()) {
    // Adopt the gathered maximum (the "max" half of max-min), then answer.
    if (g.max_ts > ts_) {
      ts_ = g.max_ts;
      val_ = g.max_val;
    }
    g.replied = true;
    message reply;
    reply.type = msg_type::read_ack;
    reply.ts = ts_.num;
    reply.wid = ts_.wid;
    reply.val = val_;
    reply.rcounter = rc;
    net.send(reader, std::move(reply));
  }
  // Each server gossips once per read request and links do not
  // duplicate, so nothing more arrives for a gather that has replied and
  // heard from all S servers.
  if (g.replied && g.senders.size() == cfg_.S()) gathers_.erase(it);
}

}  // namespace fastreg
