#include "reconfig/load_monitor.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace fastreg::reconfig {

namespace {

// Process-global event counters: plans are pure values with no node
// identity, so the registry rows are unlabelled. Counted only for plans
// that validate (a rejected plan proposes nothing).
obs::counter& promotions_counter() {
  static obs::counter& c = obs::registry::instance().get_counter(
      "fastreg_reshard_promotions_total");
  return c;
}

obs::counter& demotions_counter() {
  static obs::counter& c = obs::registry::instance().get_counter(
      "fastreg_reshard_demotions_total");
  return c;
}

/// `cur`'s round-robin protocol list resolved to one name per shard.
std::vector<std::string> resolve_assignment(const store::shard_map& cur) {
  const auto& names = cur.config().shard_protocols;
  std::vector<std::string> assignment(cur.num_shards());
  for (std::uint32_t s = 0; s < cur.num_shards(); ++s) {
    assignment[s] = names[s % names.size()];
  }
  return assignment;
}

}  // namespace

std::optional<reconfig_plan> build_hot_shard_plan(
    const store::shard_map& cur, const std::vector<std::uint64_t>& totals,
    const load_monitor_options& opt,
    const std::vector<std::uint32_t>* cool_streaks) {
  const std::uint32_t n = cur.num_shards();
  FASTREG_EXPECTS(totals.size() == n);
  std::uint64_t total = 0;
  for (const auto c : totals) total += c;
  if (total < opt.min_total_ops) return std::nullopt;

  // Resolve the current assignment so the new plan can change exactly
  // the shards that qualify.
  std::vector<std::string> assignment = resolve_assignment(cur);

  const double hot_share = opt.hot_factor / static_cast<double>(n);
  std::uint64_t promoted = 0;
  std::uint64_t demoted = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    const double share =
        static_cast<double>(totals[s]) / static_cast<double>(total);
    if (share >= hot_share && assignment[s] != opt.fast_protocol) {
      assignment[s] = opt.fast_protocol;
      ++promoted;
    }
  }
  // Demotion, gated on the hysteresis streak: only shards on the fast
  // protocol whose cool streak matured, and never one that is hot right
  // now (a hot window would have reset the streak anyway; the guard
  // keeps the pure function safe on stale streak input).
  if (cool_streaks != nullptr && !opt.demote_protocol.empty() &&
      opt.demote_protocol != opt.fast_protocol) {
    FASTREG_EXPECTS(cool_streaks->size() == n);
    for (std::uint32_t s = 0; s < n; ++s) {
      const double share =
          static_cast<double>(totals[s]) / static_cast<double>(total);
      if (assignment[s] == opt.fast_protocol && share < hot_share &&
          (*cool_streaks)[s] >= opt.demote_after) {
        assignment[s] = opt.demote_protocol;
        ++demoted;
      }
    }
  }
  if (promoted == 0 && demoted == 0) return std::nullopt;

  reconfig_plan plan{n, std::move(assignment)};
  if (!validate_plan(cur, plan).empty()) return std::nullopt;
  if (promoted > 0) promotions_counter().inc(promoted);
  if (demoted > 0) demotions_counter().inc(demoted);
  return plan;
}

void update_cool_streaks(const store::shard_map& cur,
                         const std::vector<std::uint64_t>& totals,
                         const load_monitor_options& opt,
                         std::vector<std::uint32_t>& streaks) {
  const std::uint32_t n = cur.num_shards();
  FASTREG_EXPECTS(totals.size() == n);
  if (streaks.size() != n) streaks.assign(n, 0);
  std::uint64_t total = 0;
  for (const auto c : totals) total += c;
  if (total < opt.min_total_ops) return;  // window too small to judge
  const std::vector<std::string> assignment = resolve_assignment(cur);
  const double cool_share = opt.cool_factor / static_cast<double>(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    const double share =
        static_cast<double>(totals[s]) / static_cast<double>(total);
    const bool cool =
        assignment[s] == opt.fast_protocol && share <= cool_share;
    streaks[s] = cool ? streaks[s] + 1 : 0;
  }
}

std::optional<reconfig_plan> load_monitor::sample(
    const store::shard_map& cur) {
  std::vector<std::uint64_t> totals(cur.num_shards(), 0);
  const auto& base = cur.config().base;
  for (std::uint32_t i = 0; i < base.S(); ++i) {
    ctl_.with_server(i, [&](store::server& s) {
      const auto& counts = s.shard_ops();
      // A server mid-install may briefly disagree on the shard count;
      // only same-geometry counters are comparable.
      if (counts.size() != totals.size()) return;
      for (std::size_t j = 0; j < counts.size(); ++j) {
        totals[j] += counts[j];
      }
      s.reset_shard_ops();
    });
  }
  const bool demotion =
      !opt_.demote_protocol.empty() && opt_.demote_after > 0;
  if (demotion) update_cool_streaks(cur, totals, opt_, streaks_);
  return build_hot_shard_plan(cur, totals, opt_,
                              demotion ? &streaks_ : nullptr);
}

auto_resharder::auto_resharder(control_plane& ctl, store::map_source maps,
                               options opt)
    : ctl_(ctl),
      maps_(std::move(maps)),
      opt_(opt),
      mon_(ctl, opt.monitor),
      reshard_starts_(obs::registry::instance().get_counter(
          "fastreg_reshards_started_total")) {
  FASTREG_EXPECTS(maps_ != nullptr);
  FASTREG_EXPECTS(opt_.sample_every > 0);
}

void auto_resharder::step() {
  if (coord_ && !coord_->done()) {
    coord_->step();
    return;
  }
  if (++ticks_ % opt_.sample_every != 0) return;
  auto cur = maps_();
  FASTREG_CHECK(cur != nullptr);
  const auto plan = mon_.sample(*cur);
  if (!plan) return;
  coord_.emplace(ctl_);  // discovery supplies the key set
  if (!coord_->start(std::move(cur), *plan)) {
    // An unreachable fleet (or a racing manual reshard) is transient;
    // drop the attempt and keep watching.
    coord_.reset();
    return;
  }
  reshard_starts_.inc();
}

}  // namespace fastreg::reconfig
