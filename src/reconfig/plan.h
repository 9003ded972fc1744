// Reconfiguration plans: what a live reshard may change (shard count,
// per-shard protocol assignment) and the rules that keep a plan sound
// before the coordinator starts moving state.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "store/shard_map.h"

namespace fastreg::reconfig {

/// The requested next configuration. The server/client fleet (base) is
/// fixed for the lifetime of a deployment; reconfiguration re-routes keys
/// over it.
struct reconfig_plan {
  std::uint32_t num_shards{1};
  /// Registry names, assigned round-robin exactly like store_config.
  std::vector<std::string> shard_protocols{};
};

/// Empty string when the plan may be applied on top of `cur`; otherwise a
/// human-readable reason. Rules:
///  * at least one shard and one protocol name, all known to the registry;
///  * W > 1 requires every new protocol to be multi-writer (same rule the
///    shard_map constructor enforces at deployment time);
///  * every new protocol must be feasible under the deployment's base
///    config (a reshard must not route keys onto a protocol that cannot
///    serve them);
///  * no object may switch INTO fast_bft from an unsigned protocol: its
///    migrated state would lack the writer signature fast_bft servers and
///    readers demand.
[[nodiscard]] std::string validate_plan(const store::shard_map& cur,
                                        const reconfig_plan& plan);

/// Builds the next epoch's shard map from a validated plan. Aborts on an
/// invalid plan (call validate_plan first).
[[nodiscard]] std::shared_ptr<const store::shard_map> build_next_map(
    const store::shard_map& cur, const reconfig_plan& plan);

}  // namespace fastreg::reconfig
