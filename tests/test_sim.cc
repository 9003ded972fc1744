// The simulator itself: mset semantics, manual stepping, schedulers,
// failure injection, automaton replacement, history recording.
#include <gtest/gtest.h>

#include "adversary/byzantine.h"
#include "checker/atomicity.h"
#include "registers/registry.h"
#include "sim/world.h"
#include "sim_test_util.h"

namespace fastreg::sim {
namespace {

using test::make_cfg;

world make_world(const char* proto = "abd", std::uint32_t S = 3,
                 std::uint32_t t = 1, std::uint32_t R = 2) {
  world w(make_cfg(S, t, R));
  w.install(*make_protocol(proto));
  return w;
}

TEST(World, SixtyFourServersCompleteReadsAndWrites) {
  // The largest deployment an ack set (server_set) can track.
  auto w = make_world("abd", server_set::max_servers, 1, 1);
  rng r(7);
  w.invoke_write("x");
  w.run_random(r);
  w.invoke_read(0);
  w.run_random(r);
  ASSERT_TRUE(w.last_read(0).has_value());
  EXPECT_EQ(w.last_read(0)->val, "x");
}

TEST(WorldDeathTest, SixtyFiveServersAreRejectedWhereAProtocolIsBuilt) {
  const auto cfg = make_cfg(server_set::max_servers + 1, 1, 1);
  for (const auto& name : protocol_names()) {
    if (name == "fast_bft") continue;  // needs a signature scheme; below
    const auto proto = make_protocol(name);
    EXPECT_DEATH((void)proto->make_reader(cfg, 0), "precondition") << name;
  }
  EXPECT_DEATH((void)make_protocol("abd")->make_writer(cfg, 0),
               "precondition");
  EXPECT_DEATH((void)make_protocol("fast_bft")
                   ->make_reader(make_cfg(server_set::max_servers + 1, 1, 1,
                                          0, 1, "oracle"),
                                 0),
               "precondition");
}

TEST(World, InvokeWritePutsMessagesInTransit) {
  auto w = make_world();
  EXPECT_TRUE(w.in_transit().empty());
  w.invoke_write("x");
  EXPECT_EQ(w.in_transit().size(), 3u);  // one write_req per server
  for (const auto& e : w.in_transit()) {
    EXPECT_EQ(e.from, writer_id(0));
    EXPECT_TRUE(e.to.is_server());
    EXPECT_EQ(e.msg().type, msg_type::write_req);
  }
}

TEST(World, DeliverExecutesSingleStep) {
  auto w = make_world();
  w.invoke_write("x");
  const auto id = w.in_transit().front().id;
  EXPECT_TRUE(w.deliver(id));
  EXPECT_FALSE(w.deliver(id));  // consumed
  // The server's ack is now in transit alongside the two other requests.
  EXPECT_EQ(w.in_transit().size(), 3u);
  EXPECT_EQ(w.messages_delivered(), 1u);
}

TEST(World, DeliverMatchingSnapshotSemantics) {
  auto w = make_world();
  w.invoke_write("x");
  // Deliver all write requests; acks generated during the sweep must not
  // be delivered by the same call.
  const std::size_t n = w.deliver_matching(
      [](const envelope& e) { return e.msg().type == msg_type::write_req; });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(w.in_transit().size(), 3u);  // 3 acks remain
  for (const auto& e : w.in_transit()) {
    EXPECT_EQ(e.msg().type, msg_type::write_ack);
  }
}

TEST(World, RunRandomDrainsAndCompletesOps) {
  auto w = make_world();
  rng r(1);
  w.invoke_write("x");
  w.run_random(r);
  EXPECT_TRUE(w.in_transit().empty());
  EXPECT_FALSE(w.writer(0)->write_in_progress());
  EXPECT_EQ(w.hist().ops().size(), 1u);
  EXPECT_TRUE(w.hist().ops()[0].response_time.has_value());
}

TEST(World, CrashedServerNeverReplies) {
  auto w = make_world("abd", 3, 1, 1);
  rng r(2);
  w.crash(server_id(0));
  w.invoke_write("x");
  w.run_random(r);
  // The write completes with the two live servers (quorum S - t = 2).
  EXPECT_FALSE(w.writer(0)->write_in_progress());
  // Messages to the crashed server were consumed without replies: 2 acks.
  EXPECT_EQ(w.messages_delivered(), 4u);  // 2 reqs + 2 acks
}

TEST(World, PartialBroadcastCrash) {
  auto w = make_world("abd", 5, 2, 1);
  w.crash_after_sends(writer_id(0), 2);
  w.invoke_write("torn");
  // Only 2 of 5 write requests made it out; the writer is crashed.
  EXPECT_EQ(w.in_transit().size(), 2u);
  EXPECT_TRUE(w.crashed(writer_id(0)));
}

TEST(World, DropMatchingLosesMessages) {
  auto w = make_world();
  w.invoke_write("x");
  const std::size_t dropped = w.drop_matching(
      [](const envelope& e) { return e.to == server_id(0); });
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(w.in_transit().size(), 2u);
}

TEST(World, TimedRunAdvancesClockMonotonically) {
  auto w = make_world("abd", 3, 1, 1);
  rng r(3);
  uniform_delay d(10, 20);
  w.invoke_write("x");
  const auto t0 = w.now();
  w.run_timed(r, d);
  EXPECT_GT(w.now(), t0);
  EXPECT_FALSE(w.writer(0)->write_in_progress());
  // One round-trip at 10..20 per hop: response within [t0+20, t0+40] plus
  // invocation bookkeeping.
  const auto& op = w.hist().ops()[0];
  EXPECT_GE(*op.response_time - op.invoke_time, 20u);
  EXPECT_LE(*op.response_time - op.invoke_time, 41u);
}

TEST(World, TimedRunRespectsDueOrder) {
  auto w = make_world("abd", 4, 1, 1);
  rng r(4);
  uniform_delay d(5, 5);  // constant delay: FIFO per hop wave
  w.invoke_write("x");
  w.run_timed(r, d);
  w.invoke_read(0);
  w.run_timed(r, d);
  EXPECT_EQ(w.last_read(0)->val, "x");
}

TEST(World, HistoryRecordsIntervalsAndValues) {
  auto w = make_world("abd", 3, 1, 1);
  rng r(7);
  w.invoke_write("a");
  w.run_random(r);
  w.invoke_read(0);
  w.run_random(r);
  const auto& ops = w.hist().ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_TRUE(ops[0].is_write);
  EXPECT_EQ(ops[0].val, "a");
  EXPECT_FALSE(ops[1].is_write);
  EXPECT_EQ(ops[1].val, "a");
  EXPECT_EQ(ops[1].rounds, 2);  // ABD read: two round-trips
  EXPECT_LT(*ops[0].response_time, ops[1].invoke_time);
}

TEST(World, ReplaceAutomatonSwapsBehaviour) {
  auto w = make_world("abd", 3, 1, 1);
  rng r(8);
  // Replace server 0 with a fresh server of the same protocol (a benign
  // swap that proves the hook works; byzantine tests use it for real
  // attacks).
  w.replace_automaton(server_id(0),
                      make_protocol("abd")->make_server(w.config(), 0));
  w.invoke_write("x");
  w.run_random(r);
  EXPECT_FALSE(w.writer(0)->write_in_progress());
}

TEST(World, ReplaceAutomatonRejectsAnotherProcessIdentity) {
  // A replacement answers under its own self(): installed at another
  // index it would speak for the wrong server, so it is refused.
  auto w = make_world("abd", 3, 1, 1);
  EXPECT_DEATH(w.replace_automaton(server_id(1),
                                   std::make_unique<adversary::mute_server>(2)),
               "precondition failed");
}

TEST(World, MessagesSentCounterTracksTraffic) {
  auto w = make_world("abd", 3, 1, 1);
  rng r(9);
  w.invoke_write("x");
  w.run_random(r);
  // 3 write_reqs + 3 acks.
  EXPECT_EQ(w.messages_sent(), 6u);
}

TEST(World, RunRandomUntilStopsEarly) {
  auto w = make_world("abd", 3, 1, 1);
  rng r(10);
  w.invoke_write("x");
  const auto steps =
      w.run_random_until(r, [&] { return w.messages_delivered() >= 2; });
  EXPECT_LE(steps, 3u);
  EXPECT_FALSE(w.in_transit().empty());
}

}  // namespace
}  // namespace fastreg::sim
