// An in-process TCP deployment of a full protocol instance: S server
// nodes plus one client node, over real localhost sockets. Its one user
// is store::tcp_store, which deploys the store protocol on it; every TCP
// example, bench (E11 included, through a one-shard store) and test
// reaches the sockets that way.
//
// Every reader and writer is an actor of the one client node, addressed
// by process_id through client_node() / client_actor(). The client
// node's reactor count is cluster_options' only client knob: one reactor
// per client by default (client i on reactor i, so each client keeps a
// thread of its own -- right for latency measurements of a handful of
// clients), or hub_reactors of them under client_hub (the fan-in layout
// the pipelined store front-end uses to drive thousands of clients from
// a few threads).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/node.h"
#include "registers/automaton.h"

namespace fastreg::net {

struct cluster_options {
  /// Reactor threads per server node.
  std::uint32_t server_reactors{1};
  /// Run the client node on hub_reactors reactor threads instead of one
  /// per client.
  bool client_hub{false};
  /// Reactor threads on the client node (client_hub only).
  std::uint32_t hub_reactors{1};
};

class cluster {
 public:
  /// Builds all nodes. Servers bind ephemeral ports immediately; the
  /// resulting address book is shared with every node. `copt` picks the
  /// reactor counts.
  cluster(system_config cfg, const protocol& proto,
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

  /// The client node (the same for every client) and the actor index of
  /// `pid` on it: writer j is actor j, reader i is actor W+i. Together
  /// they address any client via node's actor-indexed API.
  [[nodiscard]] node& client_node(const process_id& pid);
  [[nodiscard]] std::size_t client_actor(const process_id& pid) const;

  [[nodiscard]] const address_book& book() const { return *book_; }
  [[nodiscard]] const system_config& config() const { return cfg_; }

 private:
  system_config cfg_;
  cluster_options copt_;
  /// For restart_server: the deployment's protocol (owned by the caller,
  /// outlives the cluster -- same lifetime contract as the constructor
  /// reference).
  const protocol* proto_;
  std::shared_ptr<address_book> book_;
  std::vector<std::unique_ptr<node>> servers_;
  std::unique_ptr<node> clients_;
  bool started_{false};
};

}  // namespace fastreg::net
