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

server& sim_store::restart_server(std::uint32_t i) {
  // make_server consults the protocol's CURRENT map (maps_->get()), so a
  // rejoin after a reshard fences against the latest epoch, not the
  // deployment-time one.
  world_.restart(server_id(i),
                 proto_.make_server(proto_.config().base, i));
  return server_at(i);
}

std::string sim_store::scrape(std::uint32_t server_index, rng& r,
                              std::uint64_t max_steps) {
  const process_id p = reader_id(0);
  auto& c = client_at(p);
  world_.invoke_step(p, [&](netout& net) {
    c.begin_stats(server_index);
    c.flush(net);
  });
  world_.run_random_until(r, [&] { return c.stats_ready(); }, max_steps);
  return c.take_stats();
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
