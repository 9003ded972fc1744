#include "reconfig/plan.h"

#include "common/check.h"
#include "registers/registry.h"

namespace fastreg::reconfig {

std::string validate_plan(const store::shard_map& cur,
                          const reconfig_plan& plan) {
  if (plan.num_shards < 1) return "plan needs at least one shard";
  if (plan.shard_protocols.empty()) {
    return "plan needs at least one shard protocol";
  }
  const auto& base = cur.config().base;
  bool any_bft = false;
  for (const auto& name : plan.shard_protocols) {
    const auto proto = make_protocol(name);
    if (proto == nullptr) return "unknown protocol \"" + name + "\"";
    if (base.W() > 1 && !proto->multi_writer()) {
      return "protocol \"" + name + "\" is single-writer but W = " +
             std::to_string(base.W());
    }
    if (!proto->feasible(base)) {
      return "protocol \"" + name + "\" is infeasible under " +
             base.describe();
    }
    any_bft = any_bft || name == "fast_bft";
  }
  const bool same_layout =
      plan.num_shards == cur.num_shards() &&
      plan.shard_protocols == cur.config().shard_protocols;
  if (any_bft && !same_layout) {
    // A switch into fast_bft would seed unsigned state into a protocol
    // whose servers only serve signed timestamps. Allow fast_bft in the
    // new map only where the object already ran fast_bft, which with
    // round-robin assignment means: identical shard layout.
    for (const auto& name : cur.config().shard_protocols) {
      if (name != "fast_bft") {
        return "cannot switch objects into fast_bft from unsigned "
               "protocol \"" +
               name + "\" (migrated state would carry no signature)";
      }
    }
  }
  if (base.b() > 0 && !same_layout) {
    // Under Byzantine faults the migration state read only trusts
    // answers carrying a valid writer signature; state coming from an
    // unsigned protocol would be rejected wholesale and the key seeded
    // with bottom. (fast_bft objects never move -- same protocol name on
    // both sides -- so any cross-protocol move is an unsigned source.)
    for (const auto* protos :
         {&cur.config().shard_protocols, &plan.shard_protocols}) {
      for (const auto& name : *protos) {
        if (name != "fast_bft") {
          return "with b > 0, migrated state must carry writer "
                 "signatures: reshards may not move objects governed by "
                 "unsigned protocol \"" +
                 name + "\"";
        }
      }
    }
  }
  return {};
}

std::shared_ptr<const store::shard_map> build_next_map(
    const store::shard_map& cur, const reconfig_plan& plan) {
  FASTREG_EXPECTS(validate_plan(cur, plan).empty());
  store::store_config cfg;
  cfg.base = cur.config().base;
  cfg.num_shards = plan.num_shards;
  cfg.shard_protocols = plan.shard_protocols;
  // Durability rides across epochs: a reshard must not silently turn a
  // persistent fleet volatile (a server reconstructed under the new map
  // replays and fences against it -- see store::server's recovery path).
  cfg.persist = cur.config().persist;
  return std::make_shared<const store::shard_map>(std::move(cfg),
                                                  cur.epoch() + 1);
}

}  // namespace fastreg::reconfig
