#include "store/tcp_store.h"

#include <utility>

namespace fastreg::store {

tcp_store::tcp_store(store_config cfg, net::node_options /*nopt*/,
                     net::cluster_options copt)
    : proto_(std::move(cfg)), cluster_(proto_.config().base, proto_, copt) {}

bool tcp_store::visit(const process_id& p, const visit_fn& fn) {
  // Only the reactor may touch an automaton that live traffic mutates.
  return step(p, [&](automaton& a, netout&) { fn(a); });
}

bool tcp_store::step(const process_id& p, const step_fn& fn) {
  if (p.is_server()) return cluster_.server(p.index).run_on_reactor(0, fn);
  return cluster_.client_node(p).run_on_reactor(cluster_.client_actor(p), fn);
}

}  // namespace fastreg::store
