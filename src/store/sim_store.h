// Deterministic simulator deployment of the store: installs store client
// and server automata into a sim::world and owns the deployment's op_log.
//
// Clients are driven only through sessions (sim_frontend over this store,
// store/async_client.h), exactly as on TCP: a session issues its ops in
// world invocation steps and takes completions in the world step hook of
// its client, recording both into the op_log, so every response lands at
// the step that delivered it -- whether a schedule below or a manual
// world().deliver ran that step.
//
// Scheduling is the world's (random or timed); the usual drivers
// (adversary surgery, crash injection) work on the underlying world.
#pragma once

#include <string>

#include "sim/world.h"
#include "store/async_client.h"
#include "store/histories.h"
#include "store/store.h"

namespace fastreg::store {

class sim_store {
 public:
  explicit sim_store(store_config cfg);

  [[nodiscard]] sim::world& world() { return world_; }
  /// Deployment-time (epoch 0) configuration; base is fixed for life.
  [[nodiscard]] const store_config& config() const {
    return proto_.config();
  }
  /// The latest installed shard map.
  [[nodiscard]] std::shared_ptr<const shard_map> shards() const {
    return proto_.shards();
  }
  [[nodiscard]] store_protocol& proto() { return proto_; }

  [[nodiscard]] client& reader_client(std::uint32_t i);
  [[nodiscard]] client& writer_client(std::uint32_t i);
  [[nodiscard]] server& server_at(std::uint32_t i);

  /// Restarts server i (typically after world().crash): builds a fresh
  /// server automaton under the CURRENT shard map -- replaying its
  /// persistent log + snapshot when config().persist is enabled, empty
  /// otherwise -- and swaps it in un-crashed. Returns the new server.
  server& restart_server(std::uint32_t i);

  // ------------------------------------------------------------- schedules --
  /// The world's schedules. Return the number of steps executed.
  std::uint64_t run_random(rng& r, std::uint64_t max_steps = 1'000'000) {
    return world_.run_random(r, max_steps);
  }
  std::uint64_t run_timed(rng& r, sim::delay_model& delays,
                          std::uint64_t max_steps = 1'000'000) {
    return world_.run_timed(r, delays, max_steps);
  }

  /// True when no client has an op in flight and no message is in transit.
  [[nodiscard]] bool idle();

  /// Scrapes server `server_index`'s metrics over the simulated data
  /// path (stats_req/stats_ack through reader 0), driving the world
  /// until the ack lands. Returns the `name{labels} value` text dump;
  /// empty if the ack never arrived within `max_steps`.
  [[nodiscard]] std::string scrape(std::uint32_t server_index, rng& r,
                                   std::uint64_t max_steps = 10'000);

  /// The op log every session over this store records into.
  [[nodiscard]] op_log& log() { return log_; }
  /// Per-key histories of every session's ops, without a copy.
  [[nodiscard]] const store_histories& histories() const {
    return log_.histories();
  }

 private:
  client& client_at(const process_id& p);

  store_protocol proto_;
  sim::world world_;
  op_log log_;
};

}  // namespace fastreg::store
