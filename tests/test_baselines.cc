// Unit tests for the baseline protocols: quorum_server transitions and its
// lww tie rule, ABD phases and read rules, the max-min gossip machinery,
// MWMR timestamps, and the protocol registry.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "checker/atomicity.h"
#include "registers/abd.h"
#include "registers/maxmin.h"
#include "registers/registry.h"
#include "sim/world.h"
#include "sim_test_util.h"

namespace fastreg {
namespace {

using test::make_cfg;

class capture final : public netout {
 public:
  void send(const process_id& to, message m) override {
    out.emplace_back(to, std::move(m));
  }
  std::vector<std::pair<process_id, message>> out;
};

// ----------------------------------------------------------- quorum_server

TEST(QuorumServer, AdoptsLexicographicallyLargerTimestamps) {
  quorum_server srv(make_cfg(3, 1, 1), 0);
  capture net;
  message w;
  w.type = msg_type::write_req;
  w.ts = 1;
  w.wid = 2;
  w.val = "a";
  srv.on_message(net, writer_id(1), w);
  EXPECT_EQ(srv.stored_ts(), (wts_t{1, 2}));

  // Same number, smaller wid: not adopted.
  message w2 = w;
  w2.wid = 1;
  w2.val = "b";
  srv.on_message(net, writer_id(0), w2);
  EXPECT_EQ(srv.stored_val(), "a");

  // Larger number: adopted.
  message w3 = w;
  w3.ts = 2;
  w3.wid = 1;
  w3.val = "c";
  srv.on_message(net, writer_id(0), w3);
  EXPECT_EQ(srv.stored_val(), "c");
}

TEST(QuorumServer, AcksEchoRequestTimestampNotStored) {
  quorum_server srv(make_cfg(3, 1, 1), 0);
  capture net;
  message hi;
  hi.type = msg_type::write_req;
  hi.ts = 9;
  hi.val = "high";
  srv.on_message(net, writer_id(0), hi);
  message low;
  low.type = msg_type::wb_req;
  low.ts = 3;
  low.rcounter = 4;
  srv.on_message(net, reader_id(0), low);
  ASSERT_EQ(net.out.size(), 2u);
  // The wb_ack echoes ts=3 so the client can match it, even though the
  // server kept ts=9.
  EXPECT_EQ(net.out[1].second.type, msg_type::wb_ack);
  EXPECT_EQ(net.out[1].second.ts, 3);
  EXPECT_EQ(srv.stored_ts().num, 9);
}

TEST(QuorumServer, QueryAckReportsStoredTimestamp) {
  quorum_server srv(make_cfg(3, 1, 1), 0);
  capture net;
  message q;
  q.type = msg_type::query_req;
  q.rcounter = 1;
  srv.on_message(net, writer_id(0), q);
  ASSERT_EQ(net.out.size(), 1u);
  EXPECT_EQ(net.out[0].second.type, msg_type::query_ack);
  EXPECT_EQ(net.out[0].second.ts, 0);
}

TEST(QuorumServer, IgnoresGossipAndServerPeers) {
  quorum_server srv(make_cfg(3, 1, 1), 0);
  capture net;
  message g;
  g.type = msg_type::gossip;
  srv.on_message(net, server_id(1), g);
  message rd;
  rd.type = msg_type::read_req;
  srv.on_message(net, server_id(2), rd);
  EXPECT_TRUE(net.out.empty());
}

// ------------------------------------------------------------------- ABD

TEST(AbdReader, TwoPhaseStateMachine) {
  const auto cfg = make_cfg(3, 1, 1);
  abd_reader rd(cfg, 0);
  capture net;
  rd.invoke_read(net);
  EXPECT_TRUE(rd.read_in_progress());
  ASSERT_EQ(net.out.size(), 3u);  // phase-1 requests
  EXPECT_EQ(net.out[0].second.type, msg_type::read_req);

  // Two read_acks (S - t = 2) trigger the write-back phase.
  net.out.clear();
  message ack;
  ack.type = msg_type::read_ack;
  ack.ts = 5;
  ack.val = "v5";
  ack.rcounter = 1;
  rd.on_message(net, server_id(0), ack);
  ack.ts = 4;
  ack.val = "v4";
  rd.on_message(net, server_id(1), ack);
  ASSERT_EQ(net.out.size(), 3u);  // wb requests
  EXPECT_EQ(net.out[0].second.type, msg_type::wb_req);
  EXPECT_EQ(net.out[0].second.ts, 5);  // the max was chosen
  EXPECT_EQ(net.out[0].second.val, "v5");
  EXPECT_TRUE(rd.read_in_progress());

  // Two wb_acks complete the read.
  message wba;
  wba.type = msg_type::wb_ack;
  wba.ts = 5;
  wba.rcounter = 2;
  rd.on_message(net, server_id(0), wba);
  rd.on_message(net, server_id(2), wba);
  EXPECT_FALSE(rd.read_in_progress());
  EXPECT_EQ(rd.last_read()->val, "v5");
  EXPECT_EQ(rd.last_read()->rounds, 2);
}

TEST(AbdReader, StaleAcksFromPreviousPhaseIgnored) {
  const auto cfg = make_cfg(3, 1, 1);
  abd_reader rd(cfg, 0);
  capture net;
  rd.invoke_read(net);
  message ack;
  ack.type = msg_type::read_ack;
  ack.ts = 5;
  ack.val = "v5";
  ack.rcounter = 1;
  rd.on_message(net, server_id(0), ack);
  rd.on_message(net, server_id(1), ack);
  // Now in write-back; a late phase-1 ack must not count as a wb_ack.
  message late = ack;
  rd.on_message(net, server_id(2), late);
  EXPECT_TRUE(rd.read_in_progress());
}

TEST(AbdWriter, LocalTimestampIncrementsPerWrite) {
  const auto cfg = make_cfg(3, 1, 1);
  abd_writer w(cfg);
  capture net;
  w.invoke_write(net, "a");
  EXPECT_EQ(net.out[0].second.ts, 1);
  message ack;
  ack.type = msg_type::write_ack;
  ack.ts = 1;
  ack.rcounter = 1;
  w.on_message(net, server_id(0), ack);
  w.on_message(net, server_id(1), ack);
  EXPECT_FALSE(w.write_in_progress());
  net.out.clear();
  w.invoke_write(net, "b");
  EXPECT_EQ(net.out[0].second.ts, 2);
}

TEST(AbdWriter, StampsItsRowsWriterId) {
  // Single-writer rows keep abd's wid 0 on the wire; each naive strawman
  // writer stamps index + 1 and identifies as its own writer.
  const auto cfg = make_cfg(3, 1, 1, 0, 2);
  for (const char* name : {"abd", "naive_fast_mwmr", "naive_fast_mwmr_lww"}) {
    const auto proto = make_protocol(name);
    const std::uint32_t index = proto->multi_writer() ? 1 : 0;
    auto w = proto->make_writer(cfg, index);
    EXPECT_EQ(w->self(), writer_id(index)) << name;
    capture net;
    as_writer(w.get())->invoke_write(net, "v");
    ASSERT_EQ(net.out.size(), 3u) << name;
    EXPECT_EQ(net.out[0].second.ts, 1) << name;
    EXPECT_EQ(net.out[0].second.wid, proto->multi_writer() ? 2 : 0) << name;
  }
}

// ---------------------------------------------------------------- regular

TEST(RegularReader, OneRoundMaxSelection) {
  const auto cfg = make_cfg(3, 1, 1);
  abd_reader rd(cfg, 0, read_rule::max);
  capture net;
  rd.invoke_read(net);
  message ack;
  ack.type = msg_type::read_ack;
  ack.rcounter = 1;
  ack.ts = 2;
  ack.val = "new";
  rd.on_message(net, server_id(0), ack);
  ack.ts = 1;
  ack.val = "old";
  rd.on_message(net, server_id(1), ack);
  EXPECT_FALSE(rd.read_in_progress());
  EXPECT_EQ(rd.last_read()->val, "new");
  EXPECT_EQ(rd.last_read()->rounds, 1);
}

TEST(SingleReaderFast, NeverGoesBackwards) {
  const auto cfg = make_cfg(3, 1, 1);
  abd_reader rd(cfg, 0, read_rule::monotone_max);
  capture net;
  // First read sees ts=5.
  rd.invoke_read(net);
  message ack;
  ack.type = msg_type::read_ack;
  ack.rcounter = 1;
  ack.ts = 5;
  ack.val = "v5";
  rd.on_message(net, server_id(0), ack);
  rd.on_message(net, server_id(1), ack);
  EXPECT_EQ(rd.last_read()->val, "v5");
  // Second read only reaches servers that missed the write: quorum max is
  // ts=3, but the reader must return its previous value (Section 1).
  rd.invoke_read(net);
  ack.rcounter = 2;
  ack.ts = 3;
  ack.val = "v3";
  rd.on_message(net, server_id(1), ack);
  rd.on_message(net, server_id(2), ack);
  EXPECT_EQ(rd.last_read()->val, "v5");
  EXPECT_EQ(rd.last_read()->ts, 5);
}

// ----------------------------------------------------------------- maxmin

TEST(MaxminServer, RepliesOnlyAfterGossipQuorum) {
  const auto cfg = make_cfg(5, 2, 1);  // gossip quorum = 3
  maxmin_server srv(cfg, 0);
  capture net;
  message rd;
  rd.type = msg_type::read_req;
  rd.rcounter = 1;
  srv.on_message(net, reader_id(0), rd);
  // Broadcast to the other 4 servers, no reply to the reader yet (own
  // contribution counts as 1 of 3).
  ASSERT_EQ(net.out.size(), 4u);
  for (const auto& [to, m] : net.out) {
    EXPECT_TRUE(to.is_server());
    EXPECT_EQ(m.type, msg_type::gossip);
    EXPECT_EQ(m.origin, reader_id(0));
  }
  net.out.clear();

  // One gossip: still below quorum.
  message g;
  g.type = msg_type::gossip;
  g.origin = reader_id(0);
  g.rcounter = 1;
  g.ts = 7;
  g.val = "v7";
  srv.on_message(net, server_id(1), g);
  EXPECT_TRUE(net.out.empty());

  // Second foreign gossip reaches quorum: reply with the adopted max.
  g.ts = 3;
  g.val = "v3";
  srv.on_message(net, server_id(2), g);
  ASSERT_EQ(net.out.size(), 1u);
  EXPECT_EQ(net.out[0].first, reader_id(0));
  EXPECT_EQ(net.out[0].second.type, msg_type::read_ack);
  EXPECT_EQ(net.out[0].second.ts, 7);  // adopted the gathered max
  EXPECT_EQ(net.out[0].second.val, "v7");
  EXPECT_EQ(srv.stored_ts().num, 7);
}

TEST(MaxminServer, GossipBeforeReadRequestStillCounts) {
  const auto cfg = make_cfg(5, 2, 1);
  maxmin_server srv(cfg, 0);
  capture net;
  message g;
  g.type = msg_type::gossip;
  g.origin = reader_id(0);
  g.rcounter = 1;
  g.ts = 2;
  g.val = "v2";
  srv.on_message(net, server_id(1), g);
  srv.on_message(net, server_id(2), g);
  srv.on_message(net, server_id(3), g);
  EXPECT_TRUE(net.out.empty());  // no read_req received yet: no reply
  message rd;
  rd.type = msg_type::read_req;
  rd.rcounter = 1;
  srv.on_message(net, reader_id(0), rd);
  // Reply flows now (gossips 3 + self = 4 >= quorum 3).
  bool replied = false;
  for (const auto& [to, m] : net.out) {
    replied |= to == reader_id(0) && m.type == msg_type::read_ack;
  }
  EXPECT_TRUE(replied);
}

TEST(MaxminServer, ErasesEveryGatherOnceAllServersGossiped) {
  // Each read leaves no per-read state behind once every server's gossip
  // for it has arrived.
  const auto cfg = make_cfg(5, 2, 2);
  sim::world w(cfg);
  w.install(*make_protocol("maxmin"));
  rng r(3);
  for (int k = 0; k < 20; ++k) {
    w.invoke_write("v" + std::to_string(k));
    w.invoke_read(0);
    w.invoke_read(1);
    w.run_random(r);
    ASSERT_FALSE(w.reader(0)->read_in_progress());
    ASSERT_FALSE(w.reader(1)->read_in_progress());
  }
  for (std::uint32_t i = 0; i < cfg.S(); ++i) {
    const auto* srv = dynamic_cast<maxmin_server*>(w.get(server_id(i)));
    ASSERT_NE(srv, nullptr);
    EXPECT_EQ(srv->open_gathers(), 0u) << "server " << i;
  }
}

TEST(MaxminReader, ReturnsMinimumOfAdoptedMaxima) {
  const auto cfg = make_cfg(3, 1, 1);
  abd_reader rd(cfg, 0, read_rule::min);
  capture net;
  rd.invoke_read(net);
  message ack;
  ack.type = msg_type::read_ack;
  ack.rcounter = 1;
  ack.ts = 9;
  ack.val = "v9";
  rd.on_message(net, server_id(0), ack);
  ack.ts = 7;
  ack.val = "v7";
  rd.on_message(net, server_id(1), ack);
  EXPECT_FALSE(rd.read_in_progress());
  EXPECT_EQ(rd.last_read()->val, "v7");  // min, per Section 1
}

// ------------------------------------------------------------------- MWMR

TEST(MwmrWriter, QueriesThenWritesMaxPlusOne) {
  const auto cfg = make_cfg(3, 1, 2, 0, 2);
  abd_writer w(cfg, 1, /*wid=*/2, /*query=*/true);
  capture net;
  w.invoke_write(net, "x");
  ASSERT_EQ(net.out.size(), 3u);
  EXPECT_EQ(net.out[0].second.type, msg_type::query_req);
  net.out.clear();
  message qa;
  qa.type = msg_type::query_ack;
  qa.rcounter = 1;
  qa.ts = 6;
  w.on_message(net, server_id(0), qa);
  qa.ts = 9;
  w.on_message(net, server_id(1), qa);
  ASSERT_EQ(net.out.size(), 3u);
  EXPECT_EQ(net.out[0].second.type, msg_type::write_req);
  EXPECT_EQ(net.out[0].second.ts, 10);  // max + 1
  EXPECT_EQ(net.out[0].second.wid, 2);  // writer index 1 -> wid 2
  message wa;
  wa.type = msg_type::write_ack;
  wa.rcounter = 2;
  wa.ts = 9;  // not this write's timestamp: does not count
  w.on_message(net, server_id(1), wa);
  wa.ts = 10;  // quorum_server echoes the request's timestamp
  w.on_message(net, server_id(0), wa);
  EXPECT_TRUE(w.write_in_progress());
  w.on_message(net, server_id(2), wa);
  EXPECT_FALSE(w.write_in_progress());
  EXPECT_EQ(w.last_write_rounds(), 2);
}

TEST(LwwServer, LastWriteWinsOnEqualNumbers) {
  // Writes (1, wid 2) then (1, wid 1), then a read: returns the stored
  // value.
  const auto stored_after_tie = [](bool lww) {
    quorum_server srv(make_cfg(3, 1, 1), 0, lww);
    capture net;
    message w1;
    w1.type = msg_type::write_req;
    w1.ts = 1;
    w1.wid = 2;
    w1.val = "second-writer";
    srv.on_message(net, writer_id(1), w1);
    message w2 = w1;
    w2.wid = 1;
    w2.val = "first-writer";
    srv.on_message(net, writer_id(0), w2);
    message rd;
    rd.type = msg_type::read_req;
    srv.on_message(net, reader_id(0), rd);
    return net.out.back().second.val;
  };
  // Equal ts number: the LATER arrival wins, regardless of wid.
  EXPECT_EQ(stored_after_tie(true), "first-writer");
  // Without lww the same inputs keep the higher (num, wid).
  EXPECT_EQ(stored_after_tie(false), "second-writer");

  // With lww a lower number never wins, whatever its wid.
  quorum_server srv(make_cfg(3, 1, 1), 0, /*lww=*/true);
  capture net;
  message w;
  w.type = msg_type::write_req;
  w.ts = 2;
  w.wid = 1;
  w.val = "newer";
  srv.on_message(net, writer_id(0), w);
  w.ts = 1;
  w.wid = 2;
  w.val = "older";
  srv.on_message(net, writer_id(1), w);
  EXPECT_EQ(srv.stored_ts(), (wts_t{2, 1}));
  EXPECT_EQ(srv.stored_val(), "newer");
}

// --------------------------------------------------------------- registry

TEST(Registry, AllNamesConstructible) {
  for (const auto& name : protocol_names()) {
    auto proto = make_protocol(name);
    ASSERT_NE(proto, nullptr) << name;
    EXPECT_EQ(proto->name(), name);
    auto cfg = make_cfg(8, 1, 2, 0, 2, "oracle");
    auto srv = proto->make_server(cfg, 0);
    auto rd = proto->make_reader(cfg, 0);
    auto wr = proto->make_writer(cfg, 0);
    EXPECT_EQ(srv->self(), server_id(0)) << name;
    EXPECT_NE(as_reader(rd.get()), nullptr) << name;
    EXPECT_NE(as_writer(wr.get()), nullptr) << name;
    EXPECT_EQ(rd->self(), reader_id(0)) << name;
    EXPECT_EQ(wr->self(), writer_id(0)) << name;
    // Every replica is seedable (the store's server relies on it), and a
    // seed reads back through peek_state. Single-writer replicas keep no
    // writer id, so they are seeded with wid 0.
    auto* seed = as_seedable(srv.get());
    ASSERT_NE(seed, nullptr) << name;
    register_snapshot snap;
    snap.ts = 5;
    snap.wid = proto->multi_writer() ? 1 : 0;
    snap.val = "seeded";
    snap.prev = "seeded";
    seed->seed_state(snap);
    const auto got = seed->peek_state();
    EXPECT_EQ(got.ts, snap.ts) << name;
    EXPECT_EQ(got.wid, snap.wid) << name;
    EXPECT_EQ(got.val, snap.val) << name;
  }
}

TEST(Registry, UnknownNameReturnsNull) {
  EXPECT_EQ(make_protocol("paxos"), nullptr);
}

TEST(Registry, RoundsMatchPaperTable) {
  struct row {
    int read_rounds;
    int write_rounds;
    bool multi_writer;
  };
  const std::map<std::string, row> table = {
      {"fast_swmr", {1, 1, false}},
      {"fast_bft", {1, 1, false}},
      {"abd", {2, 1, false}},
      {"maxmin", {1, 1, false}},
      {"regular", {1, 1, false}},
      {"single_reader", {1, 1, false}},
      {"mwmr", {2, 2, true}},
      {"naive_fast_mwmr", {1, 1, true}},
      {"naive_fast_mwmr_lww", {1, 1, true}},
  };
  // Every registered protocol has a row: a new one fails until added.
  EXPECT_EQ(protocol_names().size(), table.size());
  for (const auto& name : protocol_names()) {
    const auto it = table.find(name);
    ASSERT_NE(it, table.end()) << name << " has no row";
    const auto proto = make_protocol(name);
    EXPECT_EQ(proto->read_rounds(), it->second.read_rounds) << name;
    EXPECT_EQ(proto->write_rounds(), it->second.write_rounds) << name;
    EXPECT_EQ(proto->multi_writer(), it->second.multi_writer) << name;
  }
}

TEST(Registry, FeasibilityDelegation) {
  EXPECT_TRUE(make_protocol("fast_swmr")->feasible(make_cfg(9, 2, 2)));
  EXPECT_FALSE(make_protocol("fast_swmr")->feasible(make_cfg(8, 2, 2)));
  EXPECT_TRUE(make_protocol("single_reader")->feasible(make_cfg(5, 2, 1)));
  EXPECT_FALSE(make_protocol("single_reader")->feasible(make_cfg(5, 2, 2)));
}

TEST(RegistryDeathTest, SingleWriterRowsRejectASecondWriter) {
  const auto cfg = make_cfg(8, 1, 2, 0, 2, "oracle");
  int single_writer = 0;
  for (const auto& name : protocol_names()) {
    const auto proto = make_protocol(name);
    if (proto->multi_writer()) continue;
    ++single_writer;
    EXPECT_DEATH((void)proto->make_writer(cfg, 1), "precondition") << name;
  }
  EXPECT_GT(single_writer, 0);
}

// ------------------------------------------------ LWW strawman end-to-end

TEST(NaiveFastMwmrLww, SequentialWritesReadBackCorrectly) {
  // The LWW strawman behaves fine sequentially; only the Section 7
  // adversary exposes it.
  auto cfg = make_cfg(4, 1, 2, 0, 2);
  sim::world w(cfg);
  w.install(*make_protocol("naive_fast_mwmr_lww"));
  rng r(5);
  w.invoke_write(0, "a");
  w.run_random(r);
  w.invoke_write(1, "b");
  w.run_random(r);
  w.invoke_read(0);
  w.run_random(r);
  EXPECT_EQ(w.last_read(0)->val, "b");
}

}  // namespace
}  // namespace fastreg
