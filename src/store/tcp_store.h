// Real-socket deployment of the store: a net::cluster hosting store
// client/server automata, the pipelined front-end over it, and per-key
// history gathering.
//
// Every client is an actor of the cluster's one client node, on a
// reactor of its own by default or on net::cluster_options::hub_reactors
// shared ones; sessions address clients through
// cluster::client_node/client_actor.
//
// Every operation goes through the front-end (store/async_client.h):
// open_session() gives a client a sliding window of up to `depth` ops in
// flight, and submit_and_drain() is the blocking one-shot over it (a
// depth-1 session is the one-blocking-op-at-a-time loop). A session
// begins every op of a step inside one batch frame per server, and the
// reactor flushes that frame in the same step, so pipelining keeps the
// wire busy across round trips instead of idling between them.
//
// Threading contract: one live session per client index at a time,
// driven from one thread; different client indices may be driven from
// different threads concurrently.
//
// Timeouts: a session (or submit_and_drain) that gives up on an op leaves
// it in flight, abandoned. The client's next session queues an op on the
// same key behind it, and the late completion closes the abandoned op's
// history record without being reported to anyone.
#pragma once

#include <memory>
#include <string>

#include "net/cluster.h"
#include "store/async_client.h"
#include "store/histories.h"
#include "store/store.h"

namespace fastreg::store {

class tcp_store {
 public:
  /// `nopt` is unused: the cluster sets every node's reactor count from
  /// `copt`. The argument stays for the callers that pass it.
  explicit tcp_store(store_config cfg,
                     net::node_options nopt = net::node_options{},
                     net::cluster_options copt = {});

  void start() { cluster_.start(); }
  void stop() { cluster_.stop(); }

  /// Restarts server i's node on its original port with a freshly built
  /// store server automaton -- replaying its op log + snapshot when
  /// config().persist is enabled (the rejoin-with-state path), empty
  /// otherwise. Use after cluster().server(i).stop() killed it mid-run.
  void restart_server(std::uint32_t i) { cluster_.restart_server(i); }

  [[nodiscard]] const store_config& config() const {
    return proto_.config();
  }
  [[nodiscard]] net::cluster& cluster() { return cluster_; }
  [[nodiscard]] store_protocol& proto() { return proto_; }

  /// The pipelined front-end over this deployment; every session from it
  /// logs into the deployment's op log, so gather() sees all of them.
  [[nodiscard]] tcp_frontend& frontend() { return fe_; }
  /// Convenience for frontend().open_session.
  [[nodiscard]] std::unique_ptr<async_session> open_session(
      const process_id& client, std::uint32_t depth) {
    return fe_.open_session(client, depth);
  }

  /// Per-key histories of everything invoked so far, each key's ops in
  /// invocation-time order (steady-clock nanoseconds, one machine, so
  /// cross-node ordering is meaningful). Thread-safe.
  [[nodiscard]] store_histories gather() const { return log_.gather(); }

 private:
  store_protocol proto_;
  net::cluster cluster_;
  op_log log_;
  tcp_frontend fe_{cluster_, log_};
};

}  // namespace fastreg::store
