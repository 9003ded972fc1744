#include "net/cluster.h"

#include <algorithm>

#include "common/check.h"

namespace fastreg::net {
namespace {

/// A node hosting one automaton (a server).
std::unique_ptr<node> single_actor_node(
    const system_config& cfg, std::unique_ptr<automaton> a,
    std::shared_ptr<const address_book> book, std::uint32_t reactors) {
  auto n = std::make_unique<node>(
      cfg, std::move(book), node_options{std::max<std::uint32_t>(1, reactors)});
  n->add_actor(std::move(a));
  return n;
}

}  // namespace

cluster::cluster(system_config cfg, const protocol& proto,
                 cluster_options copt)
    : cfg_(std::move(cfg)),
      copt_(copt),
      proto_(&proto),
      book_(std::make_shared<address_book>()) {
  // Servers first: bind ephemeral listeners so the address book is
  // complete before the client node exists.
  for (std::uint32_t i = 0; i < cfg_.S(); ++i) {
    auto n = single_actor_node(cfg_, proto.make_server(cfg_, i), book_,
                               copt_.server_reactors);
    n->bind_listener(0);
    book_->server_ports.push_back(n->listen_port());
    servers_.push_back(std::move(n));
  }
  // Every client is an actor of one node: writer j is actor j, reader i
  // is actor W+i (client_actor encodes the same mapping). Actor i's home
  // is reactor i % reactors, so one reactor per client gives each client
  // a thread of its own.
  const std::uint32_t client_reactors = std::max<std::uint32_t>(
      1, copt_.client_hub ? copt_.hub_reactors : cfg_.W() + cfg_.R());
  clients_ =
      std::make_unique<node>(cfg_, book_, node_options{client_reactors});
  for (std::uint32_t j = 0; j < cfg_.W(); ++j) {
    clients_->add_actor(proto.make_writer(cfg_, j));
  }
  for (std::uint32_t i = 0; i < cfg_.R(); ++i) {
    clients_->add_actor(proto.make_reader(cfg_, i));
  }
}

cluster::~cluster() { stop(); }

void cluster::start() {
  FASTREG_EXPECTS(!started_);
  started_ = true;
  for (auto& n : servers_) n->start();
  clients_->start();
}

void cluster::stop() {
  if (!started_) return;
  started_ = false;
  // Clients first so no new requests hit stopping servers.
  clients_->stop();
  for (auto& n : servers_) n->stop();
}

void cluster::restart_server(std::uint32_t i) {
  FASTREG_EXPECTS(i < servers_.size());
  const std::uint16_t port = book_->server_ports[i];
  // Destroying the node closes its listener and every connection; a
  // client whose socket HUPs lazily reconnects at the next send, and the
  // address book still routes it to the same port. A listening socket
  // never enters TIME_WAIT (and listen_on sets SO_REUSEADDR), so the
  // rebind below cannot race the old socket's teardown.
  servers_[i]->stop();
  servers_[i].reset();
  auto n = single_actor_node(cfg_, proto_->make_server(cfg_, i), book_,
                             copt_.server_reactors);
  n->bind_listener(port);
  servers_[i] = std::move(n);
  if (started_) servers_[i]->start();
}

node& cluster::client_node(const process_id& pid) {
  FASTREG_EXPECTS(!pid.is_server());
  return *clients_;
}

std::size_t cluster::client_actor(const process_id& pid) const {
  if (pid.is_writer()) return pid.index;
  FASTREG_EXPECTS(pid.is_reader());
  return cfg_.W() + pid.index;
}

}  // namespace fastreg::net
