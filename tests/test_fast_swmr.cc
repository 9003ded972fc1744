// The Figure 2 protocol: unit tests of each automaton's transitions plus
// sequential end-to-end behaviour on the simulator.
#include <gtest/gtest.h>

#include "checker/atomicity.h"
#include "registers/fast_swmr.h"
#include "registers/registry.h"
#include "sim/world.h"
#include "sim_test_util.h"

namespace fastreg {
namespace {

using test::make_cfg;

/// netout that stores sends for inspection.
class capture final : public netout {
 public:
  void send(const process_id& to, message m) override {
    out.emplace_back(to, std::move(m));
  }
  std::vector<std::pair<process_id, message>> out;
};

// ----------------------------------------------------------------- server

TEST(FastSwmrServer, AdoptsHigherTimestampAndResetsSeen) {
  fast_swmr_server srv(make_cfg(4, 1, 1), 0);
  capture net;

  message w1;
  w1.type = msg_type::write_req;
  w1.ts = 1;
  w1.val = "a";
  srv.on_message(net, writer_id(0), w1);
  EXPECT_EQ(srv.stored().tv.ts, 1);
  EXPECT_EQ(srv.stored().tv.val, "a");
  EXPECT_TRUE(srv.seen().contains(writer_id(0)));
  EXPECT_EQ(srv.seen().size(), 1u);

  // A reader's read at the same ts joins seen without resetting it.
  message rd;
  rd.type = msg_type::read_req;
  rd.ts = 1;
  rd.val = "a";
  rd.rcounter = 1;
  srv.on_message(net, reader_id(0), rd);
  EXPECT_EQ(srv.seen().size(), 2u);
  EXPECT_TRUE(srv.seen().contains(reader_id(0)));

  // Higher ts resets seen to just the updater (Figure 2 line 28).
  message w2;
  w2.type = msg_type::write_req;
  w2.ts = 2;
  w2.val = "b";
  w2.prev = "a";
  srv.on_message(net, writer_id(0), w2);
  EXPECT_EQ(srv.stored().tv.ts, 2);
  EXPECT_EQ(srv.seen().size(), 1u);
  EXPECT_TRUE(srv.seen().contains(writer_id(0)));
}

TEST(FastSwmrServer, NeverLowersTimestamp) {
  fast_swmr_server srv(make_cfg(4, 1, 1), 0);
  capture net;
  message w2;
  w2.type = msg_type::write_req;
  w2.ts = 5;
  w2.val = "e";
  srv.on_message(net, writer_id(0), w2);
  message rd;
  rd.type = msg_type::read_req;
  rd.ts = 3;  // stale write-back
  rd.rcounter = 1;
  srv.on_message(net, reader_id(0), rd);
  EXPECT_EQ(srv.stored().tv.ts, 5);  // Lemma 1
  // But the reply carries the stored (higher) timestamp.
  ASSERT_EQ(net.out.size(), 2u);
  EXPECT_EQ(net.out[1].second.ts, 5);
}

TEST(FastSwmrServer, StaleRCounterIgnoredNoReply) {
  fast_swmr_server srv(make_cfg(4, 1, 2), 0);
  capture net;
  message rd;
  rd.type = msg_type::read_req;
  rd.rcounter = 5;
  srv.on_message(net, reader_id(0), rd);
  ASSERT_EQ(net.out.size(), 1u);
  // An older rcounter from the same reader is dropped (line 26 guard).
  message old_rd;
  old_rd.type = msg_type::read_req;
  old_rd.rcounter = 4;
  srv.on_message(net, reader_id(0), old_rd);
  EXPECT_EQ(net.out.size(), 1u);
}

TEST(FastSwmrServer, RepliesEchoRequestCounter) {
  fast_swmr_server srv(make_cfg(4, 1, 1), 0);
  capture net;
  message rd;
  rd.type = msg_type::read_req;
  rd.rcounter = 9;
  srv.on_message(net, reader_id(0), rd);
  ASSERT_EQ(net.out.size(), 1u);
  EXPECT_EQ(net.out[0].second.type, msg_type::read_ack);
  EXPECT_EQ(net.out[0].second.rcounter, 9u);
  EXPECT_EQ(net.out[0].first, reader_id(0));
}

TEST(FastSwmrServer, IgnoresServerMessagesAndAcks) {
  fast_swmr_server srv(make_cfg(4, 1, 1), 0);
  capture net;
  message m;
  m.type = msg_type::read_ack;
  srv.on_message(net, reader_id(0), m);
  m.type = msg_type::read_req;
  srv.on_message(net, server_id(1), m);
  EXPECT_TRUE(net.out.empty());
}

// ----------------------------------------------------------------- writer

TEST(FastSwmrWriter, WritesCarryValueAndPrev) {
  const auto cfg = make_cfg(4, 1, 1);
  fast_swmr_writer w(cfg);
  capture net;
  w.invoke_write(net, "first");
  ASSERT_EQ(net.out.size(), 4u);  // to all servers
  EXPECT_EQ(net.out[0].second.ts, 1);
  EXPECT_EQ(net.out[0].second.val, "first");
  EXPECT_EQ(net.out[0].second.prev, "");  // bottom

  // Complete with S - t = 3 acks.
  message ack;
  ack.type = msg_type::write_ack;
  ack.ts = 1;
  for (std::uint32_t i = 0; i < 3; ++i) w.on_message(net, server_id(i), ack);
  EXPECT_FALSE(w.write_in_progress());
  EXPECT_EQ(w.next_ts(), 2);

  net.out.clear();
  w.invoke_write(net, "second");
  EXPECT_EQ(net.out[0].second.ts, 2);
  EXPECT_EQ(net.out[0].second.prev, "first");
}

TEST(FastSwmrWriter, DuplicateAcksFromSameServerDontComplete) {
  fast_swmr_writer w(make_cfg(4, 1, 1));
  capture net;
  w.invoke_write(net, "x");
  message ack;
  ack.type = msg_type::write_ack;
  ack.ts = 1;
  for (int i = 0; i < 5; ++i) w.on_message(net, server_id(0), ack);
  EXPECT_TRUE(w.write_in_progress());
}

TEST(FastSwmrWriter, StaleAcksIgnored) {
  fast_swmr_writer w(make_cfg(4, 1, 1));
  capture net;
  w.invoke_write(net, "x");
  message ack;
  ack.type = msg_type::write_ack;
  ack.ts = 7;  // not the current write's timestamp
  for (std::uint32_t i = 0; i < 4; ++i) w.on_message(net, server_id(i), ack);
  EXPECT_TRUE(w.write_in_progress());
}

// -------------------------------------------------------------- end-to-end

TEST(FastSwmr, SequentialWriteThenReadReturnsValue) {
  const auto cfg = make_cfg(8, 1, 2);  // S/t - 2 = 6 > R = 2: feasible
  ASSERT_TRUE(fast_swmr_feasible(cfg.S(), cfg.t(), cfg.R()));
  sim::world w(cfg);
  w.install(*make_protocol("fast_swmr"));
  rng r(1);

  w.invoke_write("hello");
  w.run_random(r);
  EXPECT_FALSE(w.writer(0)->write_in_progress());

  w.invoke_read(0);
  w.run_random(r);
  const auto res = w.last_read(0);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->val, "hello");
  EXPECT_EQ(res->ts, 1);
  EXPECT_EQ(res->rounds, 1);
}

TEST(FastSwmr, ReadBeforeAnyWriteReturnsBottom) {
  const auto cfg = make_cfg(8, 1, 2);
  sim::world w(cfg);
  w.install(*make_protocol("fast_swmr"));
  rng r(2);
  w.invoke_read(1);
  w.run_random(r);
  const auto res = w.last_read(1);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->ts, 0);
  EXPECT_EQ(res->val, k_bottom_value);
}

TEST(FastSwmr, TwoReadersAlternatingStaysAtomic) {
  const auto cfg = make_cfg(9, 1, 2);
  sim::world w(cfg);
  w.install(*make_protocol("fast_swmr"));
  rng r(3);
  for (int round = 1; round <= 5; ++round) {
    w.invoke_write("v" + std::to_string(round));
    w.run_random(r);
    for (std::uint32_t i = 0; i < 2; ++i) {
      w.invoke_read(i);
      w.run_random(r);
      EXPECT_EQ(w.last_read(i)->val, "v" + std::to_string(round));
    }
  }
  EXPECT_TRUE(checker::check_swmr_atomicity(w.hist()).ok);
  EXPECT_TRUE(checker::check_fastness(w.hist(), 1, 1).ok);
}

TEST(FastSwmr, IncompleteWriteSeenBySomeReader) {
  // A write that reaches only one server: a reader that sees it may return
  // it (concurrent), but atomicity of the overall history must hold.
  const auto cfg = make_cfg(8, 1, 2);
  sim::world w(cfg);
  w.install(*make_protocol("fast_swmr"));
  rng r(4);

  w.invoke_write("incomplete");
  // Deliver the write to exactly one server, then stall the writer.
  w.deliver_matching([&](const sim::envelope& e) {
    return e.msg().type == msg_type::write_req && e.to == server_id(0);
  });
  w.invoke_read(0);
  w.run_random_until(r, [&] { return !w.reader(0)->read_in_progress(); });
  const auto res = w.last_read(0);
  ASSERT_TRUE(res.has_value());
  // Either the old value (bottom) or the new one is legal here.
  EXPECT_TRUE(res->val == k_bottom_value || res->val == "incomplete");
  EXPECT_TRUE(checker::check_swmr_atomicity(w.hist()).ok);
}

TEST(FastSwmr, WaitFreeUnderMaxCrashes) {
  // t servers crash outright; every op must still complete.
  const auto cfg = make_cfg(12, 2, 2);
  sim::world w(cfg);
  w.install(*make_protocol("fast_swmr"));
  rng r(5);
  w.crash(server_id(0));
  w.crash(server_id(7));
  for (int k = 1; k <= 3; ++k) {
    w.invoke_write("v" + std::to_string(k));
    w.run_random(r);
    EXPECT_FALSE(w.writer(0)->write_in_progress());
    w.invoke_read(0);
    w.run_random(r);
    EXPECT_EQ(w.last_read(0)->val, "v" + std::to_string(k));
  }
  EXPECT_TRUE(checker::check_swmr_atomicity(w.hist()).ok);
}

TEST(FastSwmr, WriterCrashMidBroadcastReadersStillAgree) {
  const auto cfg = make_cfg(8, 1, 2);
  sim::world w(cfg);
  w.install(*make_protocol("fast_swmr"));
  rng r(6);
  // First a complete write.
  w.invoke_write("stable");
  w.run_random(r);
  // Then the writer crashes after sending to only 3 of 8 servers.
  w.crash_after_sends(writer_id(0), 3);
  w.invoke_write("torn");
  w.run_random(r);
  // Reads still terminate and the history is atomic.
  w.invoke_read(0);
  w.run_random(r);
  w.invoke_read(1);
  w.run_random(r);
  EXPECT_FALSE(w.reader(0)->read_in_progress());
  EXPECT_FALSE(w.reader(1)->read_in_progress());
  EXPECT_TRUE(checker::check_swmr_atomicity(w.hist()).ok)
      << w.hist().dump();
}

TEST(FastSwmr, PredicateWitnessVisibleAfterCompleteWrite) {
  const auto cfg = make_cfg(8, 1, 1);
  sim::world w(cfg);
  w.install(*make_protocol("fast_swmr"));
  rng r(7);
  w.invoke_write("x");
  w.run_random(r);
  w.invoke_read(0);
  w.run_random(r);
  auto* rd = dynamic_cast<fast_swmr_reader*>(w.get(reader_id(0)));
  ASSERT_NE(rd, nullptr);
  // After a complete write every ack carries ts=1; the witness is >= 1.
  EXPECT_GE(rd->last_witness(), 1u);
}

}  // namespace
}  // namespace fastreg
