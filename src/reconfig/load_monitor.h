// Load-triggered automatic resharding.
//
// Store servers count client data messages per shard of the current map
// (server::shard_ops). The load_monitor samples those counters across the
// reachable fleet, and when a shard's share of the window's traffic is
// disproportionate (a Zipf workload concentrates a few hot objects on a
// few shards), builds a reconfig_plan that promotes the hot shards to a
// fast (one-round-read) protocol while leaving the rest alone. The
// auto_resharder closes the loop: it samples periodically and, when a
// plan appears, starts and drives a migration coordinator -- no operator
// in the loop. This is the ROADMAP's "watch per-shard load and reshard
// hot shards to fast protocols" item.
//
// Demotion closes the loop in the other direction, with hysteresis
// against churn: promotion fires the moment a shard crosses the hi
// watermark (hot_factor x fair share), but a promoted shard is demoted
// back to its base protocol only after demote_after CONSECUTIVE sample
// windows at or below the cool watermark (cool_factor x fair share) --
// one warm window resets the streak, so a shard oscillating near the
// boundary stays where it is instead of paying a full handoff per flip.
// A plan is proposed only when it validates under the deployment's base
// config (e.g. fast_swmr must be feasible: S > (R+2)t), so an
// auto-resharder on an infeasible deployment simply never fires.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "reconfig/coordinator.h"
#include "reconfig/plan.h"
#include "store/shard_map.h"

namespace fastreg::reconfig {

struct load_monitor_options {
  /// A shard is hot when its share of the sample window's ops is at
  /// least hot_factor times the fair share (1 / num_shards).
  double hot_factor{2.0};
  /// Ignore sample windows with fewer total ops than this (noise guard).
  std::uint64_t min_total_ops{200};
  /// Protocol hot shards are promoted to.
  std::string fast_protocol{"fast_swmr"};

  /// Demotion target for cooled shards currently on fast_protocol; empty
  /// disables demotion. A deployment typically names its base (epoch-0)
  /// shard protocol here.
  std::string demote_protocol{};
  /// Cool watermark: a promoted shard counts a cool window when its
  /// share is at most cool_factor times the fair share. Keep it at or
  /// below hot_factor (the gap is the hysteresis band).
  double cool_factor{1.0};
  /// Consecutive cool windows required before a demotion is proposed.
  std::uint32_t demote_after{3};
};

/// Expands `cur`'s round-robin protocol list to one name per shard,
/// promotes every hot shard (per `totals`, the summed per-shard op
/// counts) to opt.fast_protocol -- and, when demotion is configured and
/// `cool_streaks` is given, demotes every shard on opt.fast_protocol
/// whose streak reached opt.demote_after (and is not hot right now) back
/// to opt.demote_protocol. Returns the resulting plan, or nullopt when
/// the window is too small, nothing qualifies, or the plan would not
/// validate. Pure function; unit-testable without a transport.
[[nodiscard]] std::optional<reconfig_plan> build_hot_shard_plan(
    const store::shard_map& cur, const std::vector<std::uint64_t>& totals,
    const load_monitor_options& opt,
    const std::vector<std::uint32_t>* cool_streaks = nullptr);

/// Advances the per-shard consecutive-cool-window counters from one
/// window's totals: a shard currently on opt.fast_protocol at or below
/// the cool watermark extends its streak, any warmer window (or a too-
/// small one, or a shard not on the fast protocol) resets it. `streaks`
/// is resized (and zeroed) on shard-count changes. Pure state-transition
/// helper shared by load_monitor::sample and its unit tests.
void update_cool_streaks(const store::shard_map& cur,
                         const std::vector<std::uint64_t>& totals,
                         const load_monitor_options& opt,
                         std::vector<std::uint32_t>& streaks);

class load_monitor {
 public:
  explicit load_monitor(control_plane& ctl, load_monitor_options opt = {})
      : ctl_(ctl), opt_(opt) {}

  /// Sums per-shard op counters across reachable servers and RESETS them
  /// (each call samples a fresh window), advances the demotion cool
  /// streaks, then applies build_hot_shard_plan.
  [[nodiscard]] std::optional<reconfig_plan> sample(
      const store::shard_map& cur);

  /// Consecutive-cool-window counters (diagnostic).
  [[nodiscard]] const std::vector<std::uint32_t>& cool_streaks() const {
    return streaks_;
  }

 private:
  control_plane& ctl_;
  load_monitor_options opt_;
  std::vector<std::uint32_t> streaks_;
};

/// The self-driving loop: sample the load every `sample_every` steps;
/// when the monitor proposes a plan, start a coordinator on it and drive
/// the migration to completion, then go back to watching.
class auto_resharder {
 public:
  struct options {
    load_monitor_options monitor{};
    /// step() calls between load samples (a sample resets the window).
    std::uint64_t sample_every{64};
  };

  /// `maps` supplies the currently installed shard map (the deployment's
  /// versioned_map source).
  auto_resharder(control_plane& ctl, store::map_source maps, options opt);
  auto_resharder(control_plane& ctl, store::map_source maps)
      : auto_resharder(ctl, std::move(maps), options{}) {}

  /// One control action: advances an in-flight reshard, or counts toward
  /// the next load sample and starts a reshard when one is due and a hot
  /// shard shows. Call interleaved with transport progress.
  void step();

  /// True while a started reshard has not finished.
  [[nodiscard]] bool resharding() const {
    return coord_.has_value() && !coord_->done();
  }
  [[nodiscard]] const load_monitor& monitor() const { return mon_; }

 private:
  control_plane& ctl_;
  store::map_source maps_;
  options opt_;
  load_monitor mon_;
  /// The in-flight (or last finished) migration; rebuilt per reshard.
  std::optional<coordinator> coord_;
  std::uint64_t ticks_{0};
  /// fastreg_reshards_started_total: reshards started in this process.
  obs::counter& reshard_starts_;
};

}  // namespace fastreg::reconfig
