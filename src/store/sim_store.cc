#include "store/sim_store.h"

#include "common/check.h"

namespace fastreg::store {

sim_store::sim_store(store_config cfg)
    : proto_(std::move(cfg)), world_(proto_.config().base) {
  world_.install(proto_);
}

client& sim_store::client_at(const process_id& p) {
  auto* c = as_store_client(world_.get(p));
  FASTREG_ENSURES(c != nullptr);
  return *c;
}

client& sim_store::reader_client(std::uint32_t i) {
  return client_at(reader_id(i));
}

client& sim_store::writer_client(std::uint32_t i) {
  return client_at(writer_id(i));
}

server& sim_store::server_at(std::uint32_t i) {
  auto* s = dynamic_cast<server*>(world_.get(server_id(i)));
  FASTREG_ENSURES(s != nullptr);
  return *s;
}

void sim_store::crash_server(std::uint32_t k) { world_.crash(server_id(k)); }

void sim_store::restart_server(std::uint32_t k) {
  // make_server consults the protocol's CURRENT map (maps_->get()), so a
  // rejoin after a reshard fences against the latest epoch, not the
  // deployment-time one.
  world_.restart(server_id(k),
                 proto_.make_server(proto_.config().base, k));
}

void sim_store::isolate_server(std::uint32_t k) { cut_links(k, true); }

void sim_store::heal_server(std::uint32_t k) { cut_links(k, false); }

void sim_store::cut_links(std::uint32_t k, bool cut) {
  // Clients and the rest of the fleet (servers gossip in the maxmin
  // family).
  const auto link = cut ? &sim::world::partition : &sim::world::heal;
  const process_id srv = server_id(k);
  const auto& cfg = proto_.config().base;
  for (std::uint32_t j = 0; j < cfg.W(); ++j) (world_.*link)(srv, writer_id(j));
  for (std::uint32_t i = 0; i < cfg.R(); ++i) (world_.*link)(srv, reader_id(i));
  for (std::uint32_t i = 0; i < cfg.S(); ++i) {
    if (i != k) (world_.*link)(srv, server_id(i));
  }
}

bool sim_store::visit(const process_id& p, const visit_fn& fn) {
  if (world_.crashed(p)) return false;
  fn(*world_.get(p));
  return true;
}

bool sim_store::step(const process_id& p, const step_fn& fn) {
  if (world_.crashed(p)) return false;
  automaton& a = *world_.get(p);
  world_.invoke_step(p, [&](netout& net) { fn(a, net); });
  return true;
}

bool sim_store::idle() {
  if (!world_.in_transit().empty()) return false;
  const auto& cfg = proto_.config().base;
  for (std::uint32_t i = 0; i < cfg.W(); ++i) {
    if (writer_client(i).op_in_progress()) return false;
  }
  for (std::uint32_t i = 0; i < cfg.R(); ++i) {
    if (reader_client(i).op_in_progress()) return false;
  }
  return true;
}

}  // namespace fastreg::store
