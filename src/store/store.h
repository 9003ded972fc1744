// store_protocol: presents the whole multi-object store as one `protocol`
// so the existing deployment machinery -- sim::world::install and
// net::cluster -- hosts it unchanged. make_writer/make_reader yield store
// client front-ends, make_server yields the multiplexing store server.
//
// All participants share one reconfig::versioned_map: clients hold its
// pull-side (map_source) so they can refetch the routing table when a
// server reply reveals a newer epoch; the reconfiguration coordinator
// installs new epochs into it (after installing them on every server).
//
// store::deployment is how code outside the data path -- the reshard
// coordinator, the stress schedule -- acts on the processes of one
// concrete deployment (sim_store, tcp_store). The paper's model acts on a
// process only by a step <p, M>; a deployment offers that step, plus a
// visit between steps for actions that send nothing, and refuses both for
// a crashed or stopped process. It also spells the model's two faults
// once for both transports: a server crash (with a restart that rebuilds
// it) and a server whose messages are held back (isolate, then heal).
#pragma once

#include <functional>
#include <memory>

#include "reconfig/versioned_map.h"
#include "store/client.h"
#include "store/server.h"
#include "store/shard_map.h"

namespace fastreg::store {

class store_protocol final : public protocol {
 public:
  explicit store_protocol(store_config cfg)
      : initial_(std::make_shared<const shard_map>(std::move(cfg))),
        maps_(std::make_shared<reconfig::versioned_map>(initial_)) {}

  [[nodiscard]] std::string name() const override { return "store"; }

  /// The store is usable iff every shard protocol is.
  [[nodiscard]] bool feasible(const system_config& cfg) const override;

  /// Worst case across shards: a mix of fast and two-round shards is a
  /// two-round store as far as upper bounds go.
  [[nodiscard]] int read_rounds() const override;
  [[nodiscard]] int write_rounds() const override;

  [[nodiscard]] std::unique_ptr<automaton> make_writer(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override;
  [[nodiscard]] std::unique_ptr<automaton> make_reader(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override;
  [[nodiscard]] std::unique_ptr<automaton> make_server(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override;

  /// The latest installed shard map (epoch 0's until a reconfiguration).
  [[nodiscard]] std::shared_ptr<const shard_map> shards() const {
    return maps_->get();
  }
  [[nodiscard]] const std::shared_ptr<reconfig::versioned_map>& maps() const {
    return maps_;
  }
  /// The deployment-time (epoch 0) configuration. Its base (S, t, b, R,
  /// W) is fixed for the deployment's lifetime; num_shards and the
  /// protocol list reflect epoch 0 only -- consult shards() for the
  /// current routing.
  [[nodiscard]] const store_config& config() const {
    return initial_->config();
  }

 private:
  std::shared_ptr<const shard_map> initial_;
  std::shared_ptr<reconfig::versioned_map> maps_;
};

class deployment {
 public:
  using visit_fn = std::function<void(automaton&)>;
  using step_fn = std::function<void(automaton&, netout&)>;

  [[nodiscard]] virtual store_protocol& proto() = 0;
  /// Runs `fn` on p's automaton between its steps. False, without running
  /// `fn`, when p is crashed or stopped.
  [[nodiscard]] virtual bool visit(const process_id& p,
                                   const visit_fn& fn) = 0;
  /// Runs `fn` as a step of p: its sends go out on the transport and the
  /// step hook of any session open on p runs after it. False, without
  /// running `fn`, when p is crashed or stopped.
  [[nodiscard]] virtual bool step(const process_id& p, const step_fn& fn) = 0;

  /// Server k takes no further step; visit and step refuse it.
  virtual void crash_server(std::uint32_t k) = 0;
  /// Rebuilds server k under the current shard map, replaying its
  /// snapshot + op log when persistence is on (empty otherwise), and lets
  /// it step again. For a crashed server.
  virtual void restart_server(std::uint32_t k) = 0;
  /// Holds back every message between server k and any other process;
  /// k keeps running and nothing is lost.
  virtual void isolate_server(std::uint32_t k) = 0;
  /// Ends isolate_server(k): the held-back messages flow again.
  virtual void heal_server(std::uint32_t k) = 0;

 protected:
  /// Deployments are owned as themselves, never through this interface.
  ~deployment() = default;
};

}  // namespace fastreg::store
