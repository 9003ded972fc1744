// Real-socket deployment of the store: a net::cluster hosting store
// client/server automata, with blocking get/put/multi_get front-ends and
// per-key history gathering.
//
// Client topology follows the cluster's (net::cluster_options): per-node
// (one node and reactor thread per client, the default) or hub (every
// client an actor on one node whose reactor pool carries all their
// connections). All the entry points below address clients through
// cluster::client_node/client_actor, so they work unchanged under both.
//
// Threading contract: at most one blocking operation at a time per client
// index (same rule as node::blocking_read); different client indices may
// be driven from different threads concurrently. multi_get pipelines all
// its keys in one reactor step, so requests and replies travel as batch
// frames.
//
// For sustained throughput, open_session() (the unified async front-end
// of store/async_client.h) replaces the one-blocking-op-at-a-time loop
// with a sliding window of up to `depth` ops in flight per client.
// Combined with the per-connection batch window (net::node_options) this
// keeps the wire busy across round trips instead of idling between them.
//
// Timeouts: a timed-out op may still be in flight; until it completes,
// further blocking ops on the same (client, key) fail fast (nullopt/
// false) rather than abort -- a session op on that key waits for it
// instead -- and a late completion closes the abandoned op's history
// record instead of leaking into a later call's results.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/cluster.h"
#include "store/async_client.h"
#include "store/histories.h"
#include "store/store.h"

namespace fastreg::store {

class tcp_store {
 public:
  explicit tcp_store(store_config cfg,
                     net::node_options nopt = net::node_options::from_env(),
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

  /// Blocking single-key ops. nullopt / false on timeout.
  [[nodiscard]] std::optional<store_result> get(
      std::uint32_t reader_index, const std::string& key,
      std::chrono::milliseconds timeout = std::chrono::seconds(10));
  [[nodiscard]] bool put(
      std::uint32_t writer_index, const std::string& key, value_t v,
      std::chrono::milliseconds timeout = std::chrono::seconds(10));

  /// Pipelined read of several distinct keys issued in ONE step (batched
  /// on the wire). Returns completion-ordered results, or nullopt if any
  /// key timed out (partial completions are still recorded in histories).
  [[nodiscard]] std::optional<std::vector<store_result>> multi_get(
      std::uint32_t reader_index, const std::vector<std::string>& keys,
      std::chrono::milliseconds timeout = std::chrono::seconds(10));

  /// Pipelined write of several distinct keys issued in ONE step.
  [[nodiscard]] bool multi_put(
      std::uint32_t writer_index,
      const std::vector<std::pair<std::string, value_t>>& kvs,
      std::chrono::milliseconds timeout = std::chrono::seconds(10));

  /// The unified pipelined front-end over this deployment. Sessions from
  /// it share the deployment's op log with the blocking calls above, so
  /// gather() sees everything either path did.
  [[nodiscard]] tcp_frontend& frontend() { return fe_; }
  /// Convenience for frontend().open_session: the pipelined session for
  /// one client (one live session per client index; do not mix with
  /// blocking calls on the same index).
  [[nodiscard]] std::unique_ptr<async_session> open_session(
      const process_id& client, std::uint32_t depth) {
    return fe_.open_session(client, depth);
  }

  /// Per-key histories of everything invoked so far, rebuilt in
  /// invocation-time order (steady-clock nanoseconds, one machine, so
  /// cross-node ordering is meaningful). Thread-safe.
  [[nodiscard]] store_histories gather() const { return log_.gather(); }

  /// Scrapes server `server_index`'s metrics over a dedicated raw socket
  /// (hello + stats_req, framed exactly like any client): the admin path
  /// an external collector would use. Safe alongside live traffic -- the
  /// scraper introduces itself under a process id no real client holds,
  /// so no reply route is hijacked. Returns the `name{labels} value`
  /// text dump; empty on timeout or connection failure.
  [[nodiscard]] std::string scrape(
      std::uint32_t server_index,
      std::chrono::milliseconds timeout = std::chrono::seconds(10));

 private:
  std::optional<std::vector<store_result>> run_ops(
      const process_id& client,
      const std::vector<std::pair<std::string, value_t>>& kvs, bool is_put,
      std::chrono::milliseconds timeout);

  store_protocol proto_;
  net::cluster cluster_;
  op_log log_;
  tcp_frontend fe_{cluster_, log_};
};

}  // namespace fastreg::store
