#include "store/shard_map.h"

#include "common/check.h"
#include "common/server_set.h"
#include "registers/registry.h"

namespace fastreg::store {

std::string store_config::describe() const {
  std::string out = base.describe();
  out += " shards=" + std::to_string(num_shards) + " protos=";
  for (std::size_t i = 0; i < shard_protocols.size(); ++i) {
    if (i != 0) out += "+";
    out += shard_protocols[i];
  }
  return out;
}

shard_map::shard_map(store_config cfg, epoch_t epoch)
    : cfg_(std::move(cfg)), epoch_(epoch) {
  FASTREG_EXPECTS(cfg_.num_shards >= 1);
  FASTREG_EXPECTS(!cfg_.shard_protocols.empty());
  // Store clients and servers track answering servers in server_sets.
  FASTREG_EXPECTS(cfg_.base.S() <= server_set::max_servers);
  protos_.reserve(cfg_.num_shards);
  for (std::uint32_t s = 0; s < cfg_.num_shards; ++s) {
    const auto& name =
        cfg_.shard_protocols[s % cfg_.shard_protocols.size()];
    auto p = make_protocol(name);
    FASTREG_CHECK(p != nullptr);
    protos_.push_back(std::move(p));
  }
  FASTREG_EXPECTS(cfg_.base.W() == 1 || all_multi_writer());
}

const protocol& shard_map::protocol_for_shard(std::uint32_t shard) const {
  FASTREG_EXPECTS(shard < protos_.size());
  return *protos_[shard];
}

bool shard_map::all_multi_writer() const {
  for (const auto& p : protos_) {
    if (!p->multi_writer()) return false;
  }
  return true;
}

}  // namespace fastreg::store
