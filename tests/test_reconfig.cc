// The live reconfiguration subsystem: plan validation, the epoch-versioned
// map registry, online key migration on the simulator (values surviving
// protocol switches, ops spanning the epoch boundary, parked ops resuming)
// and on the TCP deployment under concurrent client traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "crypto/sig.h"
#include "reconfig/control.h"
#include "reconfig/coordinator.h"
#include "reconfig/plan.h"
#include "reconfig/versioned_map.h"
#include "store/sim_store.h"
#include "store/tcp_store.h"
#include "store_test_util.h"

namespace fastreg::reconfig {
namespace {

store::store_config make_cfg(std::vector<std::string> protos,
                             std::uint32_t num_shards = 2,
                             std::uint32_t R = 2, std::uint32_t S = 7,
                             std::uint32_t t = 1, std::uint32_t W = 1) {
  store::store_config cfg;
  cfg.base.servers = S;
  cfg.base.t_failures = t;
  cfg.base.readers = R;
  cfg.base.writers = W;
  cfg.num_shards = num_shards;
  cfg.shard_protocols = std::move(protos);
  return cfg;
}

/// Interleaves coordinator control actions with random message delivery
/// until the migration finishes.
void drive_reconfig(store::sim_store& s, coordinator& coord, rng& r) {
  std::uint64_t guard = 0;
  while (!coord.done()) {
    ASSERT_LT(++guard, 1'000'000u);
    coord.step();
    if (!s.world().in_transit().empty()) s.run_random(r, 1);
  }
}

void run_until_idle(store::sim_store& s, rng& r) {
  std::uint64_t guard = 0;
  while (!s.idle()) {
    ASSERT_LT(++guard, 1'000'000u);
    ASSERT_FALSE(s.world().in_transit().empty());
    s.run_random(r, 1);
  }
}

// ------------------------------------------------------------ plans --

TEST(ReconfigPlan, RejectsUnknownProtocol) {
  store::shard_map cur(make_cfg({"abd"}));
  reconfig_plan plan{2, {"no_such_protocol"}};
  EXPECT_NE(validate_plan(cur, plan).find("unknown"), std::string::npos);
}

TEST(ReconfigPlan, RejectsSingleWriterProtocolWhenMultiWriter) {
  store::shard_map cur(make_cfg({"mwmr"}, 2, 2, 7, 1, /*W=*/2));
  reconfig_plan plan{2, {"abd"}};
  EXPECT_NE(validate_plan(cur, plan).find("single-writer"),
            std::string::npos);
}

TEST(ReconfigPlan, RejectsInfeasibleProtocol) {
  // S = 4, t = 1, R = 2: fast_swmr needs S > (R+2)t = 4.
  store::shard_map cur(make_cfg({"abd"}, 2, 2, /*S=*/4));
  reconfig_plan plan{2, {"fast_swmr"}};
  EXPECT_NE(validate_plan(cur, plan).find("infeasible"), std::string::npos);
}

TEST(ReconfigPlan, RejectsSwitchIntoFastBft) {
  store::shard_map cur(make_cfg({"abd"}, 2, 2, /*S=*/8));
  reconfig_plan plan{2, {"fast_bft"}};
  EXPECT_NE(validate_plan(cur, plan).find("fast_bft"), std::string::npos);
}

TEST(ReconfigPlan, RejectsUnsignedMigrationUnderByzantineFaults) {
  // With b > 0 the state read only trusts signed answers; a reshard that
  // could move unsigned (abd) state would seed bottom. Must be rejected
  // at validation.
  auto cfg = make_cfg({"abd"}, 2, 1, /*S=*/8);
  cfg.base.b_malicious = 1;
  store::shard_map cur(cfg);
  reconfig_plan plan{3, {"abd"}};
  EXPECT_NE(validate_plan(cur, plan).find("b > 0"), std::string::npos);
  // Same layout (nothing moves) stays allowed.
  EXPECT_EQ(validate_plan(cur, reconfig_plan{2, {"abd"}}), "");
}

TEST(ReconfigPlan, AllowsSameLayoutFastBft) {
  auto cfg = make_cfg({"fast_bft"}, 2, 1, /*S=*/8);
  cfg.base.b_malicious = 1;
  store::shard_map cur(cfg);
  reconfig_plan plan{2, {"fast_bft"}};
  EXPECT_EQ(validate_plan(cur, plan), "");
}

TEST(ReconfigPlan, BuildsNextEpochMap) {
  store::shard_map cur(make_cfg({"abd"}, 2));
  reconfig_plan plan{3, {"fast_swmr", "abd"}};
  ASSERT_EQ(validate_plan(cur, plan), "");
  const auto next = build_next_map(cur, plan);
  EXPECT_EQ(next->epoch(), 1u);
  EXPECT_EQ(next->num_shards(), 3u);
  EXPECT_EQ(next->config().base.S(), cur.config().base.S());
}

TEST(VersionedMapDeath, InstallMustAdvanceByOne) {
  versioned_map maps(std::make_shared<const store::shard_map>(
      make_cfg({"abd"})));
  auto skip = std::make_shared<const store::shard_map>(make_cfg({"abd"}),
                                                       /*epoch=*/2);
  EXPECT_DEATH(maps.install(skip), "precondition");
}

// -------------------------------------------------- sim migrations --

TEST(SimReconfig, ValuesSurviveProtocolSwitchAndShardCountChange) {
  store::sim_store s(make_cfg({"abd"}, 2));
  rng r(11);
  store::test::sim_clients clients(s, r);
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) keys.push_back("key" + std::to_string(i));
  for (const auto& k : keys) clients.put(0, k, "v:" + k);
  run_until_idle(s, r);

  sim_control ctl(s);
  coordinator coord(ctl, keys);
  ASSERT_TRUE(
      coord.start(s.shards(), reconfig_plan{3, {"fast_swmr", "abd"}}))
      << coord.error();
  drive_reconfig(s, coord, r);
  EXPECT_EQ(s.proto().maps()->epoch(), 1u);
  EXPECT_GT(coord.stats().keys_moved, 0u);
  for (std::uint32_t i = 0; i < s.config().base.S(); ++i) {
    EXPECT_EQ(s.server_at(i).epoch(), 1u);
  }

  // Every migrated value must be readable under the new map, from both
  // readers, with no post-migration writes.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    clients.get(static_cast<std::uint32_t>(i % 2), keys[i]);
  }
  run_until_idle(s, r);
  const auto& hist = s.histories();
  EXPECT_TRUE(hist.all_complete());
  for (const auto& k : keys) {
    const auto reads = hist.all().at(k).completed_reads();
    ASSERT_EQ(reads.size(), 1u) << k;
    EXPECT_EQ(reads[0].val, "v:" + k) << k;
  }
  EXPECT_TRUE(hist.verify().ok);
}

TEST(SimReconfig, FastReadsAfterPromotionToFastSwmr) {
  // One shard, abd -> fast_swmr: the "promote the hot shard" move.
  store::sim_store s(make_cfg({"abd"}, 1));
  rng r(12);
  store::test::sim_clients clients(s, r);
  clients.put(0, "hot", "h1");
  run_until_idle(s, r);
  clients.get(0, "hot");
  run_until_idle(s, r);

  sim_control ctl(s);
  coordinator coord(ctl, {"hot"});
  ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{1, {"fast_swmr"}}))
      << coord.error();
  drive_reconfig(s, coord, r);

  clients.get(1, "hot");
  run_until_idle(s, r);
  clients.put(0, "hot", "h2");
  run_until_idle(s, r);
  clients.get(0, "hot");
  run_until_idle(s, r);

  const auto& h = s.histories().all().at("hot");
  const auto reads = h.completed_reads();
  ASSERT_EQ(reads.size(), 3u);
  EXPECT_EQ(reads[0].rounds, 2);  // abd
  EXPECT_EQ(reads[0].val, "h1");
  EXPECT_EQ(reads[1].rounds, 1);  // fast_swmr, migrated value
  EXPECT_EQ(reads[1].val, "h1");
  EXPECT_EQ(reads[2].rounds, 1);  // fast_swmr, post-migration write
  EXPECT_EQ(reads[2].val, "h2");
  EXPECT_TRUE(s.histories().verify().ok);
}

TEST(SimReconfig, OpsHoldDuringDrainAndComplete) {
  store::sim_store s(make_cfg({"abd"}, 1));
  rng r(13);
  store::test::sim_clients clients(s, r);
  clients.put(0, "k", "v1");
  run_until_idle(s, r);

  sim_control ctl(s);
  coordinator coord(ctl, {"k"});
  ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{1, {"fast_swmr"}}))
      << coord.error();
  // Clients invoke while the key drains. WITHOUT advancing the
  // coordinator, the ops must end up held -- re-issued under the new
  // epoch and buffered behind the servers' lazy seed fetch (no seed
  // exists anywhere yet, and the old generation's state is still set
  // aside, so the fetches go dormant) -- not completed and not lost.
  clients.get(0, "k");
  clients.put(0, "k", "v2");
  std::uint64_t guard = 0;
  while (!s.world().in_transit().empty()) {
    ASSERT_LT(++guard, 100'000u);
    s.run_random(r, 1);
  }
  EXPECT_TRUE(s.reader_client(0).op_in_progress());
  EXPECT_TRUE(s.writer_client(0).op_in_progress());
  EXPECT_EQ(s.histories().all().at("k").completed_reads().size(), 0u);

  // Finishing the migration seeds the servers, which replay what they
  // buffered; the floor install parks and re-issues the in-flight put.
  drive_reconfig(s, coord, r);
  run_until_idle(s, r);
  const auto& h = s.histories().all().at("k");
  EXPECT_TRUE(s.histories().all_complete());
  const auto reads = h.completed_reads();
  ASSERT_EQ(reads.size(), 1u);
  // The read and the write were concurrent: either order linearizes.
  EXPECT_TRUE(reads[0].val == "v1" || reads[0].val == "v2");
  EXPECT_TRUE(s.histories().verify().ok);
}

TEST(SimReconfig, DuplicateKeysInCoordinatorListHandOffOnce) {
  // A duplicated key must not re-run the handoff: object_moves stays
  // true for the whole reconfiguration, so a second visit would read the
  // STALE previous-generation snapshot, re-floor the writers below live
  // state and park an in-flight put into an acknowledged-but-unstored
  // completion.
  store::sim_store s(make_cfg({"abd"}, 1));
  rng r(55);
  store::test::sim_clients clients(s, r);
  clients.put(0, "k", "v1");
  run_until_idle(s, r);

  sim_control ctl(s);
  coordinator coord(ctl, {"k", "k", "k"});
  ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{1, {"fast_swmr"}}))
      << coord.error();
  drive_reconfig(s, coord, r);
  EXPECT_EQ(coord.stats().keys_considered, 3u);
  EXPECT_EQ(coord.stats().keys_moved, 1u);

  clients.put(0, "k", "v2");
  run_until_idle(s, r);
  clients.get(0, "k");
  run_until_idle(s, r);
  EXPECT_TRUE(s.histories().all_complete());
  const auto reads = s.histories().all().at("k").completed_reads();
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].val, "v2");
  EXPECT_TRUE(s.histories().verify().ok);
}

TEST(SimReconfig, InFlightPutAtNewEpochCannotOutrunWriterFloor) {
  // Regression (lost-update race): a put invoked at the NEW epoch while
  // its key drains, BEFORE the coordinator installs the writer floor,
  // runs on an un-floored automaton (abd ts=1). If its write_reqs stay
  // in transit until after the servers seed the migrated state, no
  // epoch_nack is ever produced and the acks echo the request's
  // timestamp -- the put must NOT complete off those acks with no server
  // storing the value. The floor install parks the put; the resume
  // re-issues it above the migrated timestamp.
  store::sim_store s(make_cfg({"fast_swmr"}, 1));
  rng r(77);
  store::test::sim_clients clients(s, r);
  clients.put(0, "k", "v1");
  run_until_idle(s, r);

  sim_control ctl(s);
  coordinator coord(ctl, {"k"});
  ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{1, {"abd"}}))
      << coord.error();
  // The writer learns the new epoch (the map is already published) and
  // invokes while the state read is still in flight: the put's requests
  // leave at the new epoch, from an automaton that never saw a floor.
  s.world().invoke_step(writer_id(0), [&](netout& net) {
    s.writer_client(0).refresh_map();
    s.writer_client(0).flush(net);
  });
  ASSERT_EQ(s.writer_client(0).epoch(), 1u);
  clients.put(0, "k", "v2");

  // Adversarial schedule, phase by phase. First: deliver only the state
  // read, holding the put's write_reqs, until the coordinator installs
  // the floor (parking the put) and puts the seed_reqs in transit.
  const auto has_seed_req = [&] {
    return !s.world()
                .find_envelopes([](const sim::envelope& e) {
                  return e.msg.type == msg_type::seed_req;
                })
                .empty();
  };
  std::uint64_t guard = 0;
  while (!has_seed_req()) {
    ASSERT_LT(++guard, 100'000u);
    coord.step();
    s.world().deliver_matching([](const sim::envelope& e) {
      return e.msg.mig && e.msg.type != msg_type::seed_req;
    });
  }
  // The servers seed; their seed_acks stay in transit, so the
  // coordinator cannot resume anyone yet.
  s.world().deliver_matching([](const sim::envelope& e) {
    return e.msg.type == msg_type::seed_req;
  });
  // Now the held un-floored write_reqs land on the freshly seeded
  // servers (no nack anymore), and their acks -- echoing the request's
  // own timestamp -- come back to the writer. Without the floor-install
  // park, the put would complete HERE, before the resume, with no server
  // storing v2.
  s.world().deliver_matching(
      [](const sim::envelope& e) { return !e.msg.mig; });  // write_reqs
  s.world().deliver_matching(
      [](const sim::envelope& e) { return !e.msg.mig; });  // write_acks
  ASSERT_TRUE(s.writer_client(0).op_in_progress());
  EXPECT_EQ(s.writer_client(0).parked_count(), 1u);

  // Release everything; the resume re-issues the put above the migrated
  // timestamp, it completes and must be durable.
  drive_reconfig(s, coord, r);
  run_until_idle(s, r);
  clients.get(0, "k");
  run_until_idle(s, r);
  EXPECT_TRUE(s.histories().all_complete());
  const auto reads = s.histories().all().at("k").completed_reads();
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].val, "v2");
  EXPECT_TRUE(s.histories().verify().ok);
}

TEST(SimReconfig, HistoriesSpanningEpochChangeLinearize) {
  // Concurrent gets/puts on overlapping keys while a reshard with a
  // protocol flip runs mid-workload, under the aggressive random
  // schedule. Every per-key history spans the epoch boundary and must
  // still pass the atomicity checker.
  const std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
  for (std::uint64_t seed = 21; seed <= 32; ++seed) {
    store::sim_store s(make_cfg({"fast_swmr", "abd"}, 4, /*R=*/3));
    rng r(seed);
    store::test::sim_clients clients(s, r);
    sim_control ctl(s);
    coordinator coord(ctl, keys);
    bool started = false;
    std::uint32_t puts_left = 24;
    std::vector<std::uint32_t> gets_left(3, 16);
    std::uint64_t put_seq = 0;
    std::uint64_t guard = 0;
    for (;;) {
      ASSERT_LT(++guard, 1'000'000u);
      if (!started && puts_left <= 16) {
        // Mid-workload: flip the protocol assignment and change the
        // shard count, so most objects migrate.
        started = true;
        ASSERT_TRUE(coord.start(s.shards(),
                                reconfig_plan{5, {"abd", "fast_swmr"}}))
            << coord.error();
      }
      if (started && !coord.done()) coord.step();
      const bool can_put =
          puts_left > 0 && !s.writer_client(0).op_in_progress();
      bool can_get = false;
      for (std::uint32_t i = 0; i < 3; ++i) {
        can_get = can_get || (gets_left[i] > 0 &&
                              !s.reader_client(i).op_in_progress());
      }
      const bool can_deliver = !s.world().in_transit().empty();
      if (!can_put && !can_get && !can_deliver &&
          (!started || coord.done())) {
        break;
      }
      const auto dice = r.below(8);
      if (dice == 0 && can_put) {
        --puts_left;
        clients.put(0, keys[r.below(keys.size())],
                    "v" + std::to_string(++put_seq));
        continue;
      }
      if (dice == 1 && can_get) {
        const auto i = static_cast<std::uint32_t>(r.below(3));
        if (gets_left[i] > 0 && !s.reader_client(i).op_in_progress()) {
          --gets_left[i];
          clients.get(i, keys[r.below(keys.size())]);
        }
        continue;
      }
      if (can_deliver) s.run_random(r, 1);
    }
    ASSERT_TRUE(started);
    EXPECT_TRUE(coord.done());
    EXPECT_TRUE(s.histories().all_complete()) << "seed " << seed;
    const auto res = s.histories().verify();
    EXPECT_TRUE(res.ok) << "seed " << seed << ": " << res.error;
  }
}

TEST(SimReconfig, SequentialReshardsCompose) {
  // Two reconfigurations back to back (epoch 0 -> 1 -> 2), with traffic
  // between and after: the second install must cleanly retire the first
  // one's previous generation and re-fence the moved keys.
  store::sim_store s(make_cfg({"abd"}, 2));
  rng r(41);
  store::test::sim_clients clients(s, r);
  const std::vector<std::string> keys = {"m", "n", "o"};
  std::uint64_t seq = 0;
  for (const auto& k : keys) clients.put(0, k, k + std::to_string(++seq));
  run_until_idle(s, r);

  sim_control ctl(s);
  {
    coordinator coord(ctl, keys);
    ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{3, {"fast_swmr"}}))
        << coord.error();
    drive_reconfig(s, coord, r);
  }
  for (const auto& k : keys) clients.put(0, k, k + std::to_string(++seq));
  run_until_idle(s, r);
  {
    coordinator coord(ctl, keys);
    ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{2, {"abd"}}))
        << coord.error();
    drive_reconfig(s, coord, r);
  }
  EXPECT_EQ(s.proto().maps()->epoch(), 2u);
  for (const auto& k : keys) clients.get(1, k);
  run_until_idle(s, r);
  EXPECT_TRUE(s.histories().all_complete());
  EXPECT_TRUE(s.histories().verify().ok);
  for (const auto& k : keys) {
    const auto reads = s.histories().all().at(k).completed_reads();
    ASSERT_EQ(reads.size(), 1u);
    EXPECT_EQ(reads[0].rounds, 2);  // back on abd
    EXPECT_EQ(reads[0].val.substr(0, 1), k);  // second-round write value
  }
}

TEST(SimReconfig, SameLayoutEpochBumpIsInvisibleToOps) {
  auto cfg = make_cfg({"fast_bft"}, 2, /*R=*/1, /*S=*/8);
  cfg.base.b_malicious = 1;
  cfg.base.sigs = crypto::make_signature_scheme("oracle", /*seed=*/99);
  store::sim_store s(cfg);
  rng r(31);
  store::test::sim_clients clients(s, r);
  clients.put(0, "x", "x1");
  clients.put(0, "y", "y1");
  run_until_idle(s, r);

  sim_control ctl(s);
  coordinator coord(ctl, {"x", "y"});
  ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{2, {"fast_bft"}}))
      << coord.error();
  drive_reconfig(s, coord, r);
  EXPECT_EQ(coord.stats().keys_moved, 0u);  // nothing moves: carried over
  EXPECT_EQ(s.proto().maps()->epoch(), 1u);

  // Ops keep flowing across the bump; the carried fast_bft instances
  // (including their signed state) answer without re-migration.
  clients.get(0, "x");
  run_until_idle(s, r);
  clients.put(0, "x", "x2");
  run_until_idle(s, r);
  clients.get(0, "x");
  run_until_idle(s, r);
  const auto reads = s.histories().all().at("x").completed_reads();
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].val, "x1");
  EXPECT_EQ(reads[1].val, "x2");
  EXPECT_TRUE(s.histories().verify().ok);
}

// ----------------------------------- every migration pair linearizes --

using migration_pair = std::pair<std::string, std::string>;

class ReconfigEveryPair : public ::testing::TestWithParam<migration_pair> {};

TEST_P(ReconfigEveryPair, PutMigrateGetPutGet) {
  const auto& [from, to] = GetParam();
  store::sim_store s(make_cfg({from}, 2));
  rng r(fnv1a64(from + to));
  store::test::sim_clients clients(s, r);
  const std::vector<std::string> keys = {"p", "q", "r"};
  std::uint64_t seq = 0;
  for (const auto& k : keys) {
    clients.put(0, k, k + std::to_string(++seq));
  }
  run_until_idle(s, r);

  sim_control ctl(s);
  coordinator coord(ctl, keys);
  ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{2, {to}}))
      << coord.error();
  drive_reconfig(s, coord, r);
  EXPECT_EQ(coord.stats().keys_moved, from == to ? 0u : keys.size());

  for (const auto& k : keys) {
    clients.get(0, k);
  }
  run_until_idle(s, r);
  for (const auto& k : keys) {
    clients.put(0, k, k + std::to_string(++seq));
  }
  run_until_idle(s, r);
  for (const auto& k : keys) {
    clients.get(1, k);
  }
  run_until_idle(s, r);
  EXPECT_TRUE(s.histories().all_complete());
  const auto res = s.histories().verify();
  EXPECT_TRUE(res.ok) << from << "->" << to << ": " << res.error;
  // Second round of reads sees the post-migration writes.
  for (const auto& k : keys) {
    const auto reads = s.histories().all().at(k).completed_reads();
    ASSERT_EQ(reads.size(), 2u);
    EXPECT_EQ(reads[1].val.substr(0, 1), k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AtomicProtocols, ReconfigEveryPair,
    ::testing::Values(migration_pair{"abd", "fast_swmr"},
                      migration_pair{"fast_swmr", "abd"},
                      migration_pair{"abd", "maxmin"},
                      migration_pair{"maxmin", "fast_swmr"},
                      migration_pair{"fast_swmr", "mwmr"},
                      migration_pair{"mwmr", "abd"},
                      migration_pair{"abd", "abd"}),
    [](const auto& info) {
      return info.param.first + "_to_" + info.param.second;
    });

// ---------------------------------------- crash-tolerant reconfiguration --

TEST(SimReconfig, CrashedServerMidReshardStillCompletes) {
  // Regression for the full-fleet seed deadlock: one server dies
  // mid-reshard and the migration (plus every op held behind a drain)
  // must still complete -- every wait in the pipeline is a quorum wait.
  store::sim_store s(make_cfg({"abd"}, 1, /*R=*/2, /*S=*/7));
  rng r(91);
  store::test::sim_clients clients(s, r);
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3"};
  std::uint64_t seq = 0;
  for (const auto& k : keys) clients.put(0, k, k + std::to_string(++seq));
  run_until_idle(s, r);

  sim_control ctl(s);
  coordinator coord(ctl, keys);
  ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{1, {"fast_swmr"}}))
      << coord.error();
  // Kill a server mid-migration, with handoff traffic in flight; invoke
  // ops on draining keys so completions depend on the drain lifting.
  clients.get(0, "k1");
  clients.put(0, "k2", "mid");
  std::uint64_t steps = 0;
  while (!coord.done() && steps < 40) {
    coord.step();
    steps += s.run_random(r, 1);
  }
  ASSERT_FALSE(coord.done());  // still migrating when the crash hits
  s.world().crash(server_id(6));
  clients.get(1, "k3");
  drive_reconfig(s, coord, r);
  EXPECT_TRUE(coord.done());
  EXPECT_EQ(coord.stats().keys_moved, keys.size());
  run_until_idle(s, r);
  EXPECT_EQ(s.reader_client(0).parked_count(), 0u);
  EXPECT_EQ(s.writer_client(0).parked_count(), 0u);

  // The store still serves every key with the crash outstanding (S = 7,
  // t = 1: quorums of the 6 live servers suffice).
  for (const auto& k : keys) clients.get(0, k);
  run_until_idle(s, r);
  EXPECT_TRUE(s.histories().all_complete());
  const auto res = s.histories().verify();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(SimReconfig, ServerCrashedForEntireMigration) {
  // The crash predates start(): the install skips the dead server, the
  // handoffs run on quorums of the survivors, and done() still turns
  // true with zero parked ops.
  store::sim_store s(make_cfg({"abd"}, 2, /*R=*/2, /*S=*/7));
  rng r(92);
  store::test::sim_clients clients(s, r);
  const std::vector<std::string> keys = {"a", "b", "c"};
  std::uint64_t seq = 0;
  for (const auto& k : keys) clients.put(0, k, k + std::to_string(++seq));
  run_until_idle(s, r);

  s.world().crash(server_id(3));
  sim_control ctl(s);
  coordinator coord(ctl, keys);
  ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{3, {"fast_swmr"}}))
      << coord.error();
  clients.put(0, "a", "during");
  drive_reconfig(s, coord, r);
  EXPECT_TRUE(coord.done());
  run_until_idle(s, r);
  for (const auto& k : keys) clients.get(1, k);
  run_until_idle(s, r);
  EXPECT_TRUE(s.histories().all_complete());
  const auto reads = s.histories().all().at("a").completed_reads();
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].val, "during");
  EXPECT_TRUE(s.histories().verify().ok);
}

TEST(SimReconfig, TooManyCrashedServersRefusedUpFront) {
  store::sim_store s(make_cfg({"abd"}, 1, /*R=*/2, /*S=*/5));
  rng r(93);
  store::test::sim_clients clients(s, r);
  clients.put(0, "k", "v");
  run_until_idle(s, r);
  s.world().crash(server_id(0));
  s.world().crash(server_id(1));  // 3 of 5 reachable < quorum 4
  sim_control ctl(s);
  coordinator coord(ctl, {"k"});
  EXPECT_FALSE(coord.start(s.shards(), reconfig_plan{1, {"fast_swmr"}}));
  EXPECT_NE(coord.error().find("quorum"), std::string::npos);
  // Nothing was installed or published: the fleet stays at the old epoch
  // (2 of 5 crashed exceeds t = 1, so the data plane is degraded anyway,
  // but the refusal means no key was fenced on the survivors).
  EXPECT_EQ(s.proto().maps()->epoch(), 0u);
  for (std::uint32_t i = 2; i < 5; ++i) {
    EXPECT_EQ(s.server_at(i).epoch(), 0u) << i;
  }
}

TEST(SimReconfig, UnlistedKeyDiscoveredAndMigrated) {
  // Regression for the permanently-fenced-key bug: a reshard that omits
  // hosted keys from the coordinator's list must still migrate them --
  // discovery unions the servers' object indexes.
  store::sim_store s(make_cfg({"abd"}, 1, /*R=*/2, /*S=*/7));
  rng r(94);
  store::test::sim_clients clients(s, r);
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3"};
  std::uint64_t seq = 0;
  for (const auto& k : keys) clients.put(0, k, k + std::to_string(++seq));
  run_until_idle(s, r);

  sim_control ctl(s);
  coordinator coord(ctl, {"k0", "k1"});  // k2, k3 omitted
  ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{1, {"fast_swmr"}}))
      << coord.error();
  drive_reconfig(s, coord, r);
  EXPECT_EQ(coord.stats().keys_discovered, keys.size());
  EXPECT_EQ(coord.stats().keys_moved, keys.size());

  // The omitted keys serve reads under the new protocol (one round).
  clients.get(0, "k2");
  run_until_idle(s, r);
  clients.get(1, "k3");
  run_until_idle(s, r);
  EXPECT_TRUE(s.histories().all_complete());
  for (const auto* k : {"k2", "k3"}) {
    const auto reads = s.histories().all().at(k).completed_reads();
    ASSERT_EQ(reads.size(), 1u) << k;
    EXPECT_EQ(reads[0].rounds, 1) << k;
    EXPECT_EQ(reads[0].val.substr(0, 2), k) << k;
  }
  EXPECT_TRUE(s.histories().verify().ok);
}

TEST(SimReconfig, DiscoveryAloneMigratesEverything) {
  // No keys at all: the coordinator migrates purely from the indexes.
  store::sim_store s(make_cfg({"abd"}, 2, /*R=*/2, /*S=*/7));
  rng r(95);
  store::test::sim_clients clients(s, r);
  const std::vector<std::string> keys = {"x", "y", "z"};
  std::uint64_t seq = 0;
  for (const auto& k : keys) clients.put(0, k, k + std::to_string(++seq));
  run_until_idle(s, r);

  sim_control ctl(s);
  coordinator coord(ctl);
  ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{2, {"fast_swmr"}}))
      << coord.error();
  drive_reconfig(s, coord, r);
  EXPECT_EQ(coord.stats().keys_discovered, keys.size());
  EXPECT_EQ(coord.stats().keys_moved, keys.size());
  for (const auto& k : keys) clients.get(0, k);
  run_until_idle(s, r);
  EXPECT_TRUE(s.histories().all_complete());
  EXPECT_TRUE(s.histories().verify().ok);
}

TEST(SimReconfig, LazySeedFetchHealsServerThatMissedTheSeed) {
  // Partition-style loss: every seed_req to server 0 is dropped, so it
  // misses the quorum seed entirely. Its first post-drain access must
  // pull the snapshot from a generation peer before answering.
  store::sim_store s(make_cfg({"abd"}, 1, /*R=*/2, /*S=*/7));
  rng r(96);
  store::test::sim_clients clients(s, r);
  clients.put(0, "k", "v1");
  run_until_idle(s, r);

  sim_control ctl(s);
  coordinator coord(ctl, {"k"});
  ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{1, {"fast_swmr"}}))
      << coord.error();
  std::uint64_t guard = 0;
  while (!coord.done()) {
    ASSERT_LT(++guard, 1'000'000u);
    coord.step();
    s.world().drop_matching([](const sim::envelope& e) {
      return e.msg.type == msg_type::seed_req && e.to == server_id(0);
    });
    if (!s.world().in_transit().empty()) s.run_random(r, 1);
  }
  EXPECT_EQ(s.server_at(0).seeded_count(), 0u);  // missed the seed wave
  for (std::uint32_t i = 1; i < 7; ++i) {
    EXPECT_EQ(s.server_at(i).seeded_count(), 1u) << i;
  }

  // A fast_swmr read waits for S - t = 6 of 7 answers, so server 0 is on
  // the critical path of every read once any other server lags; the read
  // completing proves the lazy fetch answered.
  clients.get(0, "k");
  run_until_idle(s, r);
  EXPECT_EQ(s.server_at(0).seeded_count(), 1u);  // healed via fetch
  const auto reads = s.histories().all().at("k").completed_reads();
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].val, "v1");
  EXPECT_TRUE(s.histories().verify().ok);
}

TEST(SimReconfig, BrandNewKeyUsableUnderDrainedMap) {
  // A key nobody ever wrote, first touched after a reshard: no server
  // hosts state for it, so the lazy fetch establishes "never written"
  // from a safe majority of peers and self-seeds bottom.
  store::sim_store s(make_cfg({"abd"}, 1, /*R=*/2, /*S=*/7));
  rng r(97);
  store::test::sim_clients clients(s, r);
  clients.put(0, "old", "o1");
  run_until_idle(s, r);

  sim_control ctl(s);
  coordinator coord(ctl);
  ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{1, {"fast_swmr"}}))
      << coord.error();
  drive_reconfig(s, coord, r);

  clients.put(0, "brand-new", "n1");
  run_until_idle(s, r);
  clients.get(0, "brand-new");
  run_until_idle(s, r);
  EXPECT_TRUE(s.histories().all_complete());
  const auto reads = s.histories().all().at("brand-new").completed_reads();
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].val, "n1");
  EXPECT_TRUE(s.histories().verify().ok);
}

TEST(SimReconfig, MissedSeedStateReHandedOffByNextReshard) {
  // Server 0 misses the seed of "k" in epoch 1. Epoch 2 keeps the
  // protocol for "k" unchanged, so nothing would ordinarily move -- but
  // the pre-flight collects server 0's unseeded report and force-moves
  // "k": it is re-fenced, re-read from a quorum and re-seeded, instead
  // of server 0 silently serving regressed (bottom) state.
  store::sim_store s(make_cfg({"abd"}, 1, /*R=*/2, /*S=*/7));
  rng r(98);
  store::test::sim_clients clients(s, r);
  clients.put(0, "k", "v1");
  run_until_idle(s, r);

  sim_control ctl(s);
  {
    coordinator coord(ctl, {"k"});
    ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{1, {"fast_swmr"}}))
        << coord.error();
    std::uint64_t guard = 0;
    while (!coord.done()) {
      ASSERT_LT(++guard, 1'000'000u);
      coord.step();
      s.world().drop_matching([](const sim::envelope& e) {
        return e.msg.type == msg_type::seed_req && e.to == server_id(0);
      });
      if (!s.world().in_transit().empty()) s.run_random(r, 1);
    }
  }
  ASSERT_EQ(s.server_at(0).seeded_count(), 0u);

  // Epoch 2: same protocol for every object (fast_swmr -> fast_swmr with
  // a different shard count moves nothing by protocol comparison).
  {
    coordinator coord(ctl);
    ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{2, {"fast_swmr"}}))
        << coord.error();
    drive_reconfig(s, coord, r);
    EXPECT_EQ(coord.stats().keys_moved, 1u);  // the force-moved "k"
  }
  EXPECT_EQ(s.server_at(0).seeded_count(), 1u);  // finally seeded
  clients.get(0, "k");
  run_until_idle(s, r);
  const auto reads = s.histories().all().at("k").completed_reads();
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].val, "v1");
  EXPECT_EQ(reads[0].rounds, 1);
  EXPECT_TRUE(s.histories().verify().ok);
}

TEST(SimReconfig, SeedDelayedPastItsMigrationIsDropped) {
  // With quorum completion a seed_req can outlive the migration it
  // belongs to. One held in transit across the NEXT install must not
  // land as that generation's seed (it would record stale state and ack
  // itself into the new seed quorum); servers drop seeds not stamped
  // with their current generation.
  store::sim_store s(make_cfg({"abd"}, 1, /*R=*/2, /*S=*/7));
  rng r(99);
  store::test::sim_clients clients(s, r);
  clients.put(0, "k", "v1");
  run_until_idle(s, r);

  sim_control ctl(s);
  const auto held = [](const sim::envelope& e) {
    return e.msg.type == msg_type::seed_req && e.to == server_id(0);
  };
  {
    coordinator coord(ctl, {"k"});
    ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{1, {"fast_swmr"}}))
        << coord.error();
    std::uint64_t guard = 0;
    while (!coord.done()) {
      ASSERT_LT(++guard, 1'000'000u);
      coord.step();
      s.world().deliver_matching(
          [&](const sim::envelope& e) { return !held(e); });
    }
  }
  // The epoch-1 seed_req to server 0 is still in flight.
  ASSERT_EQ(s.world().find_envelopes(held).size(), 1u);
  ASSERT_EQ(s.server_at(0).seeded_count(), 0u);

  coordinator coord(ctl);
  ASSERT_TRUE(coord.start(s.shards(), reconfig_plan{2, {"fast_swmr"}}))
      << coord.error();  // epoch 2; "k" force-moved (server 0 missed it)
  // The stale epoch-1 seed finally lands -- after the epoch-2 install.
  ASSERT_EQ(s.world().deliver_matching(held), 1u);
  EXPECT_EQ(s.server_at(0).seeded_count(), 0u);  // dropped, not adopted

  drive_reconfig(s, coord, r);
  EXPECT_EQ(coord.stats().keys_moved, 1u);
  EXPECT_EQ(s.server_at(0).seeded_count(), 1u);  // the REAL epoch-2 seed
  clients.get(0, "k");
  run_until_idle(s, r);
  const auto reads = s.histories().all().at("k").completed_reads();
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].val, "v1");
  EXPECT_TRUE(s.histories().verify().ok);
}

// ------------------------------------------------------------- TCP --

TEST(TcpReconfig, LiveReshardUnderConcurrentTraffic) {
  store::tcp_store ts(make_cfg({"abd"}, 2, /*R=*/2, /*S=*/5));
  ts.start();
  auto& fe = ts.frontend();
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3"};
  for (const auto& k : keys) {
    ASSERT_TRUE(store::test::put_one(fe, 0, k, k + ":0"));
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int n = 1; n <= 200 && (!stop.load() || n <= 4); ++n) {
      ASSERT_TRUE(store::test::put_one(
          fe, 0, keys[static_cast<std::size_t>(n) % keys.size()],
          "w" + std::to_string(n)));
    }
  });
  std::vector<std::thread> readers;
  for (std::uint32_t i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      for (int n = 0; n <= 200 && (!stop.load() || n < 2); ++n) {
        const auto res = store::test::get_many(fe, i, {keys[0], keys[2]});
        ASSERT_TRUE(res.has_value());
      }
    });
  }

  tcp_control ctl(ts);
  coordinator coord(ctl, keys);
  ASSERT_TRUE(coord.start(ts.proto().shards(),
                          reconfig_plan{3, {"fast_swmr", "abd"}}))
      << coord.error();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!coord.done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    coord.step();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  writer.join();
  for (auto& th : readers) th.join();

  // Post-reshard, the store still serves every key.
  for (const auto& k : keys) {
    const auto res = store::test::get_one(fe, 1, k);
    ASSERT_TRUE(res.has_value()) << k;
    EXPECT_FALSE(res->val.empty()) << k;
  }
  const auto hist = ts.gather();
  const auto res = hist.verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(TcpReconfig, ReshardCompletesWithServerCrashedThroughout) {
  // The acceptance scenario on real sockets: one server is down for the
  // ENTIRE migration (stopped before start()), concurrent client traffic
  // keeps flowing, and the reshard -- driven purely by discovery, no key
  // list -- still completes with every op accounted for.
  store::tcp_store ts(make_cfg({"abd"}, 2, /*R=*/2, /*S=*/5));
  ts.start();
  auto& fe = ts.frontend();
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3"};
  for (const auto& k : keys) {
    ASSERT_TRUE(store::test::put_one(fe, 0, k, k + ":0"));
  }
  ts.cluster().server(4).stop();  // crashed for the whole reshard

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int n = 1; n <= 200 && (!stop.load() || n <= 4); ++n) {
      ASSERT_TRUE(store::test::put_one(
          fe, 0, keys[static_cast<std::size_t>(n) % keys.size()],
          "w" + std::to_string(n)));
    }
  });
  std::vector<std::thread> readers;
  for (std::uint32_t i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      for (int n = 0; n <= 200 && (!stop.load() || n < 2); ++n) {
        const auto res = store::test::get_many(fe, i, {keys[1], keys[3]});
        ASSERT_TRUE(res.has_value());
      }
    });
  }

  tcp_control ctl(ts);
  coordinator coord(ctl);  // discovery supplies the key set
  ASSERT_TRUE(coord.start(ts.proto().shards(),
                          reconfig_plan{3, {"fast_swmr", "abd"}}))
      << coord.error();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!coord.done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    coord.step();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(coord.stats().keys_discovered, keys.size());
  stop.store(true);
  writer.join();
  for (auto& th : readers) th.join();

  // Post-reshard, quorums of the 4 live servers serve every key.
  for (const auto& k : keys) {
    const auto res = store::test::get_one(fe, 1, k);
    ASSERT_TRUE(res.has_value()) << k;
    EXPECT_FALSE(res->val.empty()) << k;
  }
  const auto res = ts.gather().verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

}  // namespace
}  // namespace fastreg::reconfig
