// Load-triggered automatic resharding: the hot-shard plan builder as a
// pure function, and the auto_resharder closing the loop on the simulator
// (a Zipf-style hot key gets its shard promoted to fast_swmr without an
// operator, mid-traffic, with per-key atomicity intact).
#include <gtest/gtest.h>

#include <functional>

#include "obs/metrics.h"
#include "reconfig/control.h"
#include "reconfig/load_monitor.h"
#include "store/sim_store.h"
#include "store_test_util.h"

namespace fastreg::reconfig {
namespace {

store::store_config make_cfg(std::vector<std::string> protos,
                             std::uint32_t num_shards, std::uint32_t S = 7,
                             std::uint32_t R = 2) {
  store::store_config cfg;
  cfg.base.servers = S;
  cfg.base.t_failures = 1;
  cfg.base.readers = R;
  cfg.base.writers = 1;
  cfg.num_shards = num_shards;
  cfg.shard_protocols = std::move(protos);
  return cfg;
}

/// fastreg_reshards_started_total: reshards started in this process.
std::uint64_t reshards_started() {
  return obs::registry::instance()
      .get_counter("fastreg_reshards_started_total")
      .value();
}

// ------------------------------------------------- plan builder (pure) --

TEST(HotShardPlan, PromotesTheHotShardOnly) {
  store::shard_map cur(make_cfg({"abd"}, 4));
  const auto plan =
      build_hot_shard_plan(cur, {900, 40, 30, 30}, load_monitor_options{});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->num_shards, 4u);
  const std::vector<std::string> want = {"fast_swmr", "abd", "abd", "abd"};
  EXPECT_EQ(plan->shard_protocols, want);
}

TEST(HotShardPlan, QuietWindowProposesNothing) {
  store::shard_map cur(make_cfg({"abd"}, 4));
  EXPECT_FALSE(build_hot_shard_plan(cur, {50, 1, 1, 1},
                                    load_monitor_options{})
                   .has_value());  // below min_total_ops
}

TEST(HotShardPlan, BalancedLoadProposesNothing) {
  store::shard_map cur(make_cfg({"abd"}, 4));
  EXPECT_FALSE(build_hot_shard_plan(cur, {250, 250, 250, 250},
                                    load_monitor_options{})
                   .has_value());  // nobody reaches hot_factor x fair share
}

TEST(HotShardPlan, AlreadyFastShardProposesNothing) {
  store::shard_map cur(make_cfg({"fast_swmr"}, 2));
  EXPECT_FALSE(build_hot_shard_plan(cur, {900, 100},
                                    load_monitor_options{})
                   .has_value());
}

TEST(HotShardPlan, InfeasibleFastProtocolProposesNothing) {
  // S = 4, t = 1, R = 2: fast_swmr needs S > (R+2)t = 4, so promotion
  // would not validate; the monitor must stay quiet instead of wedging
  // the coordinator with an invalid plan.
  store::shard_map cur(make_cfg({"abd"}, 2, /*S=*/4));
  EXPECT_FALSE(build_hot_shard_plan(cur, {900, 100},
                                    load_monitor_options{})
                   .has_value());
}

// --------------------------------------------- demotion with hysteresis --

load_monitor_options demote_opts() {
  load_monitor_options opt;
  opt.demote_protocol = "abd";
  opt.demote_after = 3;
  return opt;
}

TEST(Demotion, RequiresKConsecutiveCoolWindows) {
  // Shard 0 runs the fast protocol but has gone cold. Streak below the
  // threshold: no plan; at the threshold: demoted back to abd.
  store::shard_map cur(make_cfg({"fast_swmr", "abd", "abd", "abd"}, 4));
  const auto opt = demote_opts();
  const std::vector<std::uint64_t> totals = {10, 330, 330, 330};
  const std::vector<std::uint32_t> immature = {2, 0, 0, 0};
  EXPECT_FALSE(build_hot_shard_plan(cur, totals, opt, &immature)
                   .has_value());
  const std::vector<std::uint32_t> mature = {3, 0, 0, 0};
  const auto plan = build_hot_shard_plan(cur, totals, opt, &mature);
  ASSERT_TRUE(plan.has_value());
  const std::vector<std::string> want = {"abd", "abd", "abd", "abd"};
  EXPECT_EQ(plan->shard_protocols, want);
}

TEST(Demotion, HotShardNeverDemotedEvenWithStaleStreak) {
  // Defensive: a hot window resets the streak, but the pure function
  // must also refuse stale streak input that claims a currently-hot
  // shard is cool.
  store::shard_map cur(make_cfg({"fast_swmr", "abd", "abd", "abd"}, 4));
  const std::vector<std::uint64_t> totals = {700, 100, 100, 100};
  const std::vector<std::uint32_t> streaks = {5, 0, 0, 0};
  EXPECT_FALSE(build_hot_shard_plan(cur, totals, demote_opts(), &streaks)
                   .has_value());
}

TEST(Demotion, StreaksExtendOnCoolResetOnWarm) {
  store::shard_map cur(make_cfg({"fast_swmr", "abd", "abd", "abd"}, 4));
  const auto opt = demote_opts();
  std::vector<std::uint32_t> streaks;
  // Cool window (shard 0 at ~1% share, fair share 25%): streak grows.
  update_cool_streaks(cur, {10, 330, 330, 330}, opt, streaks);
  update_cool_streaks(cur, {10, 330, 330, 330}, opt, streaks);
  EXPECT_EQ(streaks[0], 2u);
  // One warm window (50% share > cool watermark) resets it -- the
  // hysteresis that prevents promote/demote churn at the boundary.
  update_cool_streaks(cur, {500, 170, 170, 160}, opt, streaks);
  EXPECT_EQ(streaks[0], 0u);
  // Non-fast shards never accumulate a streak.
  update_cool_streaks(cur, {10, 990, 0, 0}, opt, streaks);
  EXPECT_EQ(streaks[1], 0u);
  // A window below the noise guard leaves streaks untouched.
  update_cool_streaks(cur, {0, 50, 50, 50}, opt, streaks);
  EXPECT_EQ(streaks[0], 1u);
}

// ------------------------------------------- auto-resharder, end to end --

TEST(SimAutoReshard, HotShardPromotedWithoutAnOperator) {
  store::sim_store s(make_cfg({"abd"}, 4));
  rng r(123);
  store::test::sim_clients clients(s, r);
  // Give every key initial state so discovery has something to migrate.
  const std::vector<std::string> keys = {"hot", "c1", "c2", "c3"};
  std::uint64_t seq = 0;
  for (const auto& k : keys) clients.put(0, k, k + std::to_string(++seq));
  std::uint64_t guard = 0;
  while (!s.idle()) {
    ASSERT_LT(++guard, 1'000'000u);
    s.run_random(r, 1);
  }

  sim_control ctl(s);
  auto_resharder::options opt;
  // One sim step delivers one message and an op costs ~20 of them, so a
  // 400-step window holds enough ops to clear the noise guard.
  opt.sample_every = 400;
  opt.monitor.min_total_ops = 64;
  auto_resharder ar(ctl, s.proto().maps()->source(), opt);
  const std::uint64_t started0 = reshards_started();

  // Heavily skewed closed loop: ~7 of 8 ops hit "hot". The monitor must
  // notice, reshard once, and the migration must drain mid-traffic.
  std::uint32_t puts_left = 300;
  std::vector<std::uint32_t> gets_left(2, 300);
  guard = 0;
  for (;;) {
    ASSERT_LT(++guard, 2'000'000u);
    ar.step();
    const auto pick = [&]() -> const std::string& {
      return r.below(8) < 7 ? keys[0] : keys[1 + r.below(3)];
    };
    if (puts_left > 0 && !s.writer_client(0).op_in_progress()) {
      --puts_left;
      clients.put(0, pick(), "v" + std::to_string(++seq));
    }
    for (std::uint32_t i = 0; i < 2; ++i) {
      if (gets_left[i] > 0 && !s.reader_client(i).op_in_progress()) {
        --gets_left[i];
        clients.get(i, pick());
      }
    }
    if (!s.world().in_transit().empty()) {
      s.run_random(r, 1);
    } else if (puts_left == 0 && gets_left[0] == 0 && gets_left[1] == 0 &&
               !ar.resharding() && s.idle()) {
      break;
    }
  }
  EXPECT_GE(reshards_started() - started0, 1u);
  EXPECT_FALSE(ar.resharding());
  EXPECT_GE(s.proto().maps()->epoch(), 1u);
  // The hot key's shard now runs the fast protocol...
  const auto cur = s.shards();
  EXPECT_EQ(cur->protocol_for_object(store::key_object_id("hot")).name(),
            "fast_swmr");
  // ...and serves one-round reads.
  clients.get(0, "hot");
  guard = 0;
  while (!s.idle()) {
    ASSERT_LT(++guard, 1'000'000u);
    s.run_random(r, 1);
  }
  const auto reads = s.histories().all().at("hot").completed_reads();
  ASSERT_FALSE(reads.empty());
  EXPECT_EQ(reads.back().rounds, 1);
  EXPECT_TRUE(s.histories().all_complete());
  const auto res = s.histories().verify();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(SimAutoReshard, PromotedShardCoolsAndDemotesWithoutChurn) {
  store::sim_store s(make_cfg({"abd"}, 4));
  rng r(321);
  store::test::sim_clients clients(s, r);

  // One representative key per shard, so cooling the promoted shard is
  // unambiguous (no cold key accidentally keeps it warm).
  std::vector<std::string> keys(4);
  std::vector<bool> have(4, false);
  std::uint32_t found = 0;
  for (int i = 0; found < 4; ++i) {
    const std::string k = "k" + std::to_string(i);
    const auto shard = s.shards()->shard_of_key(k);
    if (!have[shard]) {
      have[shard] = true;
      keys[shard] = k;
      ++found;
    }
  }
  const std::string hot = keys[0];

  std::uint64_t seq = 0;
  for (const auto& k : keys) clients.put(0, k, k + std::to_string(++seq));
  std::uint64_t guard = 0;
  while (!s.idle()) {
    ASSERT_LT(++guard, 1'000'000u);
    s.run_random(r, 1);
  }

  sim_control ctl(s);
  auto_resharder::options opt;
  opt.sample_every = 400;
  opt.monitor.min_total_ops = 64;
  // Hi watermark at 75% share: the skewed phase (~87% on the hot key)
  // clears it, while random fluctuation of the 3-way cold traffic
  // (~33% per shard) cannot -- otherwise a lucky window would promote a
  // cold shard and the churn assertion below would measure noise.
  opt.monitor.hot_factor = 3.0;
  opt.monitor.demote_protocol = "abd";
  opt.monitor.demote_after = 3;
  auto_resharder ar(ctl, s.proto().maps()->source(), opt);
  const std::uint64_t started0 = reshards_started();

  // Drives closed-loop traffic with `pick` until `until` holds (checked
  // between steps) -- the promote, cool-down and steady phases share the
  // loop shape of the promotion test above.
  const auto drive = [&](const std::function<const std::string&()>& pick,
                         const std::function<bool()>& until,
                         std::uint64_t max_iters) {
    std::uint64_t iters = 0;
    for (;;) {
      if (++iters > max_iters) return false;
      ar.step();
      if (!ar.resharding() && until()) return true;
      if (!s.writer_client(0).op_in_progress()) {
        clients.put(0, pick(), "v" + std::to_string(++seq));
      }
      for (std::uint32_t i = 0; i < 2; ++i) {
        if (!s.reader_client(i).op_in_progress()) clients.get(i, pick());
      }
      if (!s.world().in_transit().empty()) s.run_random(r, 1);
    }
  };

  // Phase 1 -- skewed load: ~7 of 8 ops hit the hot key; the monitor
  // promotes its shard.
  const auto pick_hot = [&]() -> const std::string& {
    return r.below(8) < 7 ? hot : keys[1 + r.below(3)];
  };
  ASSERT_TRUE(drive(
      pick_hot, [&] { return reshards_started() == started0 + 1; },
      2'000'000));
  EXPECT_EQ(
      s.shards()->protocol_for_object(store::key_object_id(hot)).name(),
      "fast_swmr");

  // Phase 2 -- the hot key goes cold (traffic moves to the other
  // shards). Only after demote_after consecutive cool windows may the
  // second reshard fire, demoting the shard back to abd.
  const auto pick_cold = [&]() -> const std::string& {
    return keys[1 + r.below(3)];
  };
  ASSERT_TRUE(drive(
      pick_cold, [&] { return reshards_started() == started0 + 2; },
      4'000'000));
  EXPECT_EQ(
      s.shards()->protocol_for_object(store::key_object_id(hot)).name(),
      "abd");
  EXPECT_GE(s.proto().maps()->epoch(), 2u);

  // Phase 3 -- hysteresis against churn: several more cool windows of
  // the same cold traffic must NOT trigger a third reshard (the shard is
  // already on its base protocol).
  std::uint32_t cold_ops = 600;
  EXPECT_TRUE(drive(pick_cold, [&] { return --cold_ops == 0; },
                    4'000'000));
  EXPECT_EQ(reshards_started() - started0, 2u);

  // Quiesce and verify every per-key history across all three epochs.
  std::uint64_t drain_guard = 0;
  while (!s.idle()) {
    ASSERT_LT(++drain_guard, 2'000'000u);
    s.run_random(r, 1);
  }
  EXPECT_TRUE(s.histories().all_complete());
  const auto res = s.histories().verify();
  EXPECT_TRUE(res.ok) << res.error;
}

}  // namespace
}  // namespace fastreg::reconfig
