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
// (adversary surgery, crash_after_sends) work on the underlying world.
//
// As a deployment, a visit is a direct call between world steps and a
// step is world::invoke_step, both refused for a crashed process. A crash
// is world::crash; an isolation is a world::partition between the server
// and every other process.
#pragma once

#include "sim/world.h"
#include "store/async_client.h"
#include "store/histories.h"
#include "store/store.h"

namespace fastreg::store {

class sim_store final : public deployment {
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
  [[nodiscard]] store_protocol& proto() override { return proto_; }
  [[nodiscard]] bool visit(const process_id& p, const visit_fn& fn) override;
  [[nodiscard]] bool step(const process_id& p, const step_fn& fn) override;
  void crash_server(std::uint32_t k) override;
  void restart_server(std::uint32_t k) override;
  void isolate_server(std::uint32_t k) override;
  void heal_server(std::uint32_t k) override;

  [[nodiscard]] client& reader_client(std::uint32_t i);
  [[nodiscard]] client& writer_client(std::uint32_t i);
  [[nodiscard]] server& server_at(std::uint32_t i);

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

  /// The op log every session over this store records into.
  [[nodiscard]] op_log& log() { return log_; }
  /// Per-key histories of every session's ops, without a copy.
  [[nodiscard]] const store_histories& histories() const {
    return log_.histories();
  }

 private:
  client& client_at(const process_id& p);
  /// Partitions (cut) or heals every link between server k and the rest.
  void cut_links(std::uint32_t k, bool cut);

  store_protocol proto_;
  sim::world world_;
  op_log log_;
};

}  // namespace fastreg::store
