// An in-process TCP deployment of a full protocol instance: S server
// nodes plus the client side, over real localhost sockets. Its one user
// is store::tcp_store, which deploys the store protocol on it; every TCP
// example, bench (E11 included, through a one-shard store) and test
// reaches the sockets that way.
//
// Client topology is selectable (cluster_options):
//  * per-node (default): every reader and writer is its own node with its
//    own reactor thread -- one OS thread per client, the historical
//    layout, right for latency measurements of a handful of clients.
//  * hub: ALL readers and writers are actors multiplexed on ONE hub node
//    whose reactor pool (hub_reactors) carries every client connection --
//    the fan-in layout the pipelined store front-end uses to drive
//    thousands of clients from a few threads.
// Clients are addressed by process_id through client_node() /
// client_actor(), which work unchanged under either topology.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "net/node.h"
#include "registers/automaton.h"

namespace fastreg::net {

struct cluster_options {
  /// Reactor threads per server node.
  std::uint32_t server_reactors{1};
  /// Host every reader/writer as an actor on one hub node instead of a
  /// node (and thread) per client.
  bool client_hub{false};
  /// Reactor threads on the hub node (client_hub only).
  std::uint32_t hub_reactors{1};
};

class cluster {
 public:
  /// Builds all nodes. Servers bind ephemeral ports immediately; the
  /// resulting address book is shared with every node. `nopt` (the
  /// outbound flush policy) applies to every node; the default flushes
  /// immediately. `copt` picks the client topology and reactor counts.
  cluster(system_config cfg, const protocol& proto,
          node_options nopt = node_options{},
          cluster_options copt = {});
  ~cluster();

  cluster(const cluster&) = delete;
  cluster& operator=(const cluster&) = delete;

  void start();
  void stop();

  /// Tears server i's node down (closing its listener and connections;
  /// peers observe HUP and reconnect lazily) and rebuilds it on the SAME
  /// port with a freshly constructed automaton from the deployment's
  /// protocol -- which replays persistent state when the protocol is so
  /// configured. Started immediately when the cluster is running. Safe
  /// for a node that was stop()ed earlier (the crash-then-restart
  /// schedule); do not call concurrently with start()/stop().
  void restart_server(std::uint32_t i);

  [[nodiscard]] node& server(std::uint32_t i) { return *servers_[i]; }

  /// The node hosting client `pid` and the actor index of `pid` on it:
  /// {that client's own node, 0} per-node, {the hub, its slot} under a
  /// hub. Together they address any client under either topology via
  /// node's actor-indexed API.
  [[nodiscard]] node& client_node(const process_id& pid);
  [[nodiscard]] std::size_t client_actor(const process_id& pid) const;
  [[nodiscard]] bool client_hub() const { return copt_.client_hub; }
  /// The hub node (hub topology only).
  [[nodiscard]] node& hub() {
    FASTREG_EXPECTS(copt_.client_hub);
    return *hub_;
  }

  [[nodiscard]] const address_book& book() const { return *book_; }
  [[nodiscard]] const system_config& config() const { return cfg_; }

 private:
  system_config cfg_;
  cluster_options copt_;
  /// For restart_server: the deployment's protocol (owned by the caller,
  /// outlives the cluster -- same lifetime contract as the constructor
  /// reference) and the node options every server was built with.
  const protocol* proto_;
  node_options nopt_;
  std::shared_ptr<address_book> book_;
  std::vector<std::unique_ptr<node>> servers_;
  std::vector<std::unique_ptr<node>> readers_;
  std::vector<std::unique_ptr<node>> writers_;
  std::unique_ptr<node> hub_;
  bool started_{false};
};

}  // namespace fastreg::net
