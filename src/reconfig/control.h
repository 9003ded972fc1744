// control_plane adapters binding the reconfiguration coordinator to the
// two concrete deployments: the deterministic simulator (sim_store) and
// the socket cluster (tcp_store).
//
// Simulator: control actions run between world steps on the driving
// thread; client steps go through world::invoke_step so their sends land
// in the world's in-transit set, and the step hook of any store session
// open on the client runs, like any other step.
//
// TCP: control actions run as steps on each node's reactor thread
// (run_on_reactor), so they serialize with live traffic -- and with the
// step hook of any store session open on the client -- exactly like
// delivered frames. The coordinator may therefore run on its own thread
// next to concurrently operating client threads.
#pragma once

#include "reconfig/coordinator.h"
#include "store/sim_store.h"
#include "store/tcp_store.h"

namespace fastreg::reconfig {

class sim_control final : public control_plane {
 public:
  explicit sim_control(store::sim_store& s) : s_(s) {}

  bool with_server(std::uint32_t index,
                   const std::function<void(store::server&)>& fn) override {
    if (s_.world().crashed(server_id(index))) return false;
    fn(s_.server_at(index));
    return true;
  }

  void publish(std::shared_ptr<const store::shard_map> next) override {
    s_.proto().maps()->install(std::move(next));
  }

  void with_migrator(
      const std::function<void(store::client&, netout&)>& fn) override {
    s_.world().invoke_step(reader_id(0), [&](netout& net) {
      fn(s_.reader_client(0), net);
    });
  }

  bool migrator_done() override { return s_.reader_client(0).mig_done(); }

  register_snapshot migrator_snapshot() override {
    return s_.reader_client(0).mig_snapshot();
  }

  void for_each_client(
      const std::function<void(store::client&, netout&)>& fn) override {
    const auto& base = s_.config().base;
    for (std::uint32_t j = 0; j < base.W(); ++j) {
      s_.world().invoke_step(writer_id(j), [&](netout& net) {
        fn(s_.writer_client(j), net);
      });
    }
    for (std::uint32_t i = 0; i < base.R(); ++i) {
      s_.world().invoke_step(reader_id(i), [&](netout& net) {
        fn(s_.reader_client(i), net);
      });
    }
  }

 private:
  store::sim_store& s_;
};

class tcp_control final : public control_plane {
 public:
  explicit tcp_control(store::tcp_store& s) : s_(s) {}

  bool with_server(std::uint32_t index,
                   const std::function<void(store::server&)>& fn) override {
    // A stopped node models a crashed server; control actions skip it.
    // try_run_on_reactor is atomic against a concurrent stop() -- plain
    // run_on_reactor would fall back to running inline, un-crashing the
    // automaton's state behind the deployment's back.
    return s_.cluster().server(index).try_run_on_reactor(
        0, [&](automaton& a, netout&) {
          fn(dynamic_cast<store::server&>(a));
        });
  }

  void publish(std::shared_ptr<const store::shard_map> next) override {
    s_.proto().maps()->install(std::move(next));
  }

  void with_migrator(
      const std::function<void(store::client&, netout&)>& fn) override {
    on_client(reader_id(0), fn);  // the migrator is reader 0
  }

  bool migrator_done() override {
    bool done = false;
    // Marshal the peek through the reactor: the migration op's state is
    // mutated by live traffic on that thread.
    on_client(reader_id(0),
              [&](store::client& c, netout&) { done = c.mig_done(); });
    return done;
  }

  register_snapshot migrator_snapshot() override {
    register_snapshot snap;
    on_client(reader_id(0),
              [&](store::client& c, netout&) { snap = c.mig_snapshot(); });
    return snap;
  }

  void for_each_client(
      const std::function<void(store::client&, netout&)>& fn) override {
    const auto& base = s_.config().base;
    for (std::uint32_t j = 0; j < base.W(); ++j) on_client(writer_id(j), fn);
    for (std::uint32_t i = 0; i < base.R(); ++i) on_client(reader_id(i), fn);
  }

 private:
  /// Runs `fn` as a step of client `pid`, addressed through client_node /
  /// client_actor so per-node and hub client topologies both work.
  void on_client(const process_id& pid,
                 const std::function<void(store::client&, netout&)>& fn) {
    auto& c = s_.cluster();
    c.client_node(pid).run_on_reactor(
        c.client_actor(pid), [&](automaton& a, netout& net) {
          fn(dynamic_cast<store::client&>(a), net);
        });
  }

  store::tcp_store& s_;
};

}  // namespace fastreg::reconfig
