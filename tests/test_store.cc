// The sharded multi-object store: routing, batching, per-key atomicity
// under random schedules, every registry protocol as a shard protocol,
// the blocking helper on both transports, and the TCP deployment.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "benchutil/workload.h"
#include "crypto/sig.h"
#include "obs/metrics.h"
#include "registers/registry.h"
#include "store/shard_map.h"
#include "store/sim_store.h"
#include "store/tcp_store.h"
#include "store_test_util.h"

namespace fastreg::store {
namespace {

store_config small_cfg(std::vector<std::string> protos,
                       std::uint32_t num_shards = 2, std::uint32_t R = 2,
                       std::uint32_t S = 7, std::uint32_t t = 1) {
  store_config cfg;
  cfg.base.servers = S;
  cfg.base.t_failures = t;
  cfg.base.readers = R;
  cfg.base.writers = 1;
  cfg.num_shards = num_shards;
  cfg.shard_protocols = std::move(protos);
  return cfg;
}

// -------------------------------------------------------------- shard map

TEST(ShardMap, RoutingIsDeterministicAndInRange) {
  shard_map m(small_cfg({"abd", "fast_swmr"}, /*num_shards=*/4));
  for (int i = 0; i < 100; ++i) {
    const auto key = "key" + std::to_string(i);
    const auto s = m.shard_of_key(key);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, m.shard_of_key(key));  // stable
    EXPECT_EQ(s, m.shard_of_object(key_object_id(key)));
  }
}

TEST(ShardMap, ProtocolsAssignedRoundRobin) {
  shard_map m(small_cfg({"abd", "fast_swmr"}, /*num_shards=*/4));
  EXPECT_EQ(m.protocol_for_shard(0).name(), "abd");
  EXPECT_EQ(m.protocol_for_shard(1).name(), "fast_swmr");
  EXPECT_EQ(m.protocol_for_shard(2).name(), "abd");
  EXPECT_EQ(m.protocol_for_shard(3).name(), "fast_swmr");
}

TEST(ShardMap, KeysSpreadAcrossShards) {
  shard_map m(small_cfg({"abd"}, /*num_shards=*/4));
  std::set<std::uint32_t> hit;
  for (int i = 0; i < 64; ++i) {
    hit.insert(m.shard_of_key("key" + std::to_string(i)));
  }
  EXPECT_EQ(hit.size(), 4u);  // 64 uniform keys miss a shard w.p. ~1e-7
}

TEST(ShardMapDeath, SingleWriterShardsRejectMultipleWriters) {
  auto cfg = small_cfg({"abd"});
  cfg.base.writers = 2;
  EXPECT_DEATH(shard_map{cfg}, "precondition");
}

TEST(ShardMap, MwmrShardsAcceptMultipleWriters) {
  auto cfg = small_cfg({"mwmr"});
  cfg.base.writers = 2;
  shard_map m(cfg);
  EXPECT_TRUE(m.all_multi_writer());
}

// ------------------------------------------------------------- sim store

TEST(SimStore, PutThenGetRoundTrips) {
  sim_store s(small_cfg({"fast_swmr", "abd"}, 4));
  rng r(1);
  test::sim_clients clients(s, r);
  sim::uniform_delay d(50, 150);
  clients.put(0, "alpha", "1");
  clients.put(0, "beta", "2");
  s.run_timed(r, d);
  ASSERT_TRUE(s.idle());
  clients.get(0, "alpha");
  clients.get(1, "beta");
  s.run_timed(r, d);
  ASSERT_TRUE(s.idle());
  const auto& hist = s.histories();
  EXPECT_EQ(hist.key_count(), 2u);
  EXPECT_TRUE(hist.all_complete());
  const auto& alpha_reads = hist.all().at("alpha").completed_reads();
  ASSERT_EQ(alpha_reads.size(), 1u);
  EXPECT_EQ(alpha_reads[0].val, "1");
  const auto& beta_reads = hist.all().at("beta").completed_reads();
  ASSERT_EQ(beta_reads.size(), 1u);
  EXPECT_EQ(beta_reads[0].val, "2");
  EXPECT_TRUE(hist.verify().ok);
}

TEST(SimStore, ShardProtocolDictatesReadRounds) {
  // One shard per protocol: keys on the abd shard must take 2 round
  // trips, keys on the fast_swmr shard 1.
  sim_store s(small_cfg({"fast_swmr", "abd"}, 2));
  rng r(2);
  test::sim_clients clients(s, r);
  sim::uniform_delay d(100, 100);
  // Find one key per shard.
  std::string fast_key, abd_key;
  for (int i = 0; fast_key.empty() || abd_key.empty(); ++i) {
    const auto key = "key" + std::to_string(i);
    (s.shards()->shard_of_key(key) == 0 ? fast_key : abd_key) = key;
  }
  clients.put(0, fast_key, "f");
  clients.put(0, abd_key, "a");
  s.run_timed(r, d);
  clients.get(0, fast_key);
  clients.get(0, abd_key);
  s.run_timed(r, d);
  ASSERT_TRUE(s.idle());
  const auto fast_reads = s.histories().all().at(fast_key).completed_reads();
  const auto abd_reads = s.histories().all().at(abd_key).completed_reads();
  ASSERT_EQ(fast_reads.size(), 1u);
  ASSERT_EQ(abd_reads.size(), 1u);
  EXPECT_EQ(fast_reads[0].rounds, 1);
  EXPECT_EQ(abd_reads[0].rounds, 2);
}

TEST(SimStore, ConcurrentOverlappingKeysLinearizePerKey) {
  // Concurrent gets/puts on overlapping keys under the aggressive random
  // schedule; every demuxed per-object history must linearize.
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    sim_store s(small_cfg({"fast_swmr", "abd"}, 4, /*R=*/3));
    rng r(seed);
    test::sim_clients clients(s, r);
    const std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
    std::uint32_t puts_left = 20;
    std::vector<std::uint32_t> gets_left(3, 15);
    std::uint64_t put_seq = 0;
    std::uint64_t guard = 0;
    for (;;) {
      ASSERT_LT(++guard, 1'000'000u);
      const bool can_put =
          puts_left > 0 && !s.writer_client(0).op_in_progress();
      bool can_get = false;
      for (std::uint32_t i = 0; i < 3; ++i) {
        can_get = can_get || (gets_left[i] > 0 &&
                              !s.reader_client(i).op_in_progress());
      }
      const bool can_deliver = !s.world().in_transit().empty();
      if (!can_put && !can_get && !can_deliver) break;
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
    EXPECT_TRUE(s.histories().all_complete());
    const auto res = s.histories().verify();
    EXPECT_TRUE(res.ok) << "seed " << seed << ": " << res.error;
  }
}

TEST(SimStore, PipelinedBatchesCoalesceEnvelopes) {
  store_config cfg = small_cfg({"fast_swmr"}, 1, /*R=*/1);
  sim_store s(cfg);
  rng r(3);
  test::sim_clients clients(s, r);
  sim::uniform_delay d(50, 150);
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3",
                                         "k4", "k5", "k6", "k7"};
  std::vector<store_op> puts, gets;
  for (const auto& k : keys) {
    puts.push_back(store_op{k, /*is_put=*/true, "v:" + k});
    gets.push_back(store_op{k, /*is_put=*/false, {}});
  }
  clients.submit(writer_id(0), puts);
  s.run_timed(r, d);
  clients.submit(reader_id(0), gets);
  s.run_timed(r, d);
  ASSERT_TRUE(s.idle());
  EXPECT_TRUE(s.histories().all_complete());
  EXPECT_TRUE(s.histories().verify().ok);
  // 8 ops per direction shared each envelope: far fewer envelopes than
  // messages. Request legs alone save 7/8 of the transport units.
  EXPECT_LT(s.world().envelopes_sent() * 4, s.world().messages_sent());
  // And pipelining is visible in the histories: the 8 gets overlap.
  for (const auto& [key, h] : s.histories().all()) {
    EXPECT_EQ(h.size(), 2u) << key;
  }
}

TEST(SimStore, WorldForkClonesStoreAutomata) {
  sim_store s(small_cfg({"abd"}, 2));
  rng r(5);
  test::sim_clients clients(s, r);
  clients.put(0, "x", "1");
  // Mid-flight fork: both branches must independently complete the op.
  auto forked = s.world().fork();
  s.run_random(r, 100);
  rng r2(6);
  forked.run_random(r2, 100);
  EXPECT_TRUE(s.idle());
  EXPECT_TRUE(forked.in_transit().empty());
}

TEST(SimStore, CompletionRecordedAtDeliveringStep) {
  // No schedule runs: the requests, then the acks one server at a time,
  // are delivered by hand. The put's response must be recorded at the
  // step that delivered its completing ack, not at a later run_* call
  // (a later response widens the op's interval) and not never.
  sim_store s(small_cfg({"abd"}, 1, /*R=*/1, /*S=*/5));
  rng r(8);
  sim_frontend fe(s, r);
  auto w = fe.open_session(writer_id(0), /*depth=*/1);
  ASSERT_EQ(w->try_put("k", "v"), submit_status::submitted);
  w->pump();
  ASSERT_EQ(s.world().deliver_matching(
                [](const sim::envelope& e) { return e.to.is_server(); }),
            5u);
  for (std::uint32_t i = 0; i < 5 && w->in_flight() > 0; ++i) {
    ASSERT_EQ(s.world().deliver_matching([&](const sim::envelope& e) {
      return e.to == writer_id(0) && e.from == server_id(i);
    }),
              1u);
  }
  const auto& op = s.histories().all().at("k").op(0);
  ASSERT_TRUE(op.response_time.has_value()) << "the put is still open";
  EXPECT_EQ(*op.response_time, s.world().now());
  const auto results = w->take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].key, "k");
}

TEST(SimStore, AbandonedOpClosedByNextSessionAtItsCompletionStep) {
  // A session that closes with an op in flight abandons it. The client's
  // next session closes that op's history entry in the step that
  // completes it, and does not report it among its own results.
  sim_store s(small_cfg({"abd"}, 1, /*R=*/1, /*S=*/5));
  rng r(9);
  sim_frontend fe(s, r);
  {
    auto first = fe.open_session(reader_id(0), /*depth=*/1);
    ASSERT_EQ(first->try_get("old"), submit_status::submitted);
    first->pump();
  }
  auto next = fe.open_session(reader_id(0), /*depth=*/1);
  ASSERT_EQ(next->try_get("new"), submit_status::submitted);
  next->pump();
  const auto old_op = [&] { return s.histories().all().at("old").op(0); };
  while (!old_op().response_time) {
    ASSERT_FALSE(s.world().in_transit().empty())
        << "the abandoned get was never closed";
    s.world().deliver(s.world().in_transit().front().id);
  }
  EXPECT_EQ(*old_op().response_time, s.world().now());
  ASSERT_TRUE(next->drain());
  const auto results = next->take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].key, "new");
  EXPECT_TRUE(s.histories().all_complete());
  EXPECT_TRUE(s.histories().verify().ok);
}

// ----------------------------------------- every protocol as a shard

class StoreEveryProtocol : public ::testing::TestWithParam<std::string> {};

TEST_P(StoreEveryProtocol, RandomWorkloadLinearizesPerKey) {
  const auto name = GetParam();
  store_config cfg;
  // S=8, t=1, b=1, R=1, W=1 is inside every protocol's feasible region,
  // and the single reader keeps single_reader valid as a shard protocol.
  cfg.base.servers = 8;
  cfg.base.t_failures = 1;
  cfg.base.b_malicious = 1;
  cfg.base.readers = 1;
  cfg.base.writers = 1;
  cfg.base.sigs = crypto::make_signature_scheme("oracle", /*seed=*/99);
  cfg.num_shards = 2;
  cfg.shard_protocols = {name};
  sim_store s(cfg);
  ASSERT_TRUE(
      store_protocol(cfg).feasible(cfg.base))
      << name << " infeasible under " << cfg.describe();

  rng r(fnv1a64(name));
  test::sim_clients clients(s, r);
  const std::vector<std::string> keys = {"p", "q", "r"};
  std::uint32_t puts_left = 8, gets_left = 8;
  std::uint64_t seq = 0, guard = 0;
  for (;;) {
    ASSERT_LT(++guard, 1'000'000u);
    const bool can_put =
        puts_left > 0 && !s.writer_client(0).op_in_progress();
    const bool can_get =
        gets_left > 0 && !s.reader_client(0).op_in_progress();
    const bool can_deliver = !s.world().in_transit().empty();
    if (!can_put && !can_get && !can_deliver) break;
    const auto dice = r.below(8);
    if (dice == 0 && can_put) {
      --puts_left;
      clients.put(0, keys[r.below(keys.size())],
                  "v" + std::to_string(++seq));
      continue;
    }
    if (dice == 1 && can_get) {
      --gets_left;
      clients.get(0, keys[r.below(keys.size())]);
      continue;
    }
    if (can_deliver) s.run_random(r, 1);
  }
  EXPECT_TRUE(s.histories().all_complete()) << name;
  const auto res = s.histories().verify();
  EXPECT_TRUE(res.ok) << name << ": " << res.error;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, StoreEveryProtocol,
                         ::testing::ValuesIn(protocol_names()),
                         [](const auto& info) { return info.param; });

// -------------------------------------------------------- workload driver

TEST(StoreWorkload, ClosedLoopCompletesAndLinearizes) {
  store_config cfg = small_cfg({"fast_swmr", "abd"}, 4, /*R=*/3);
  benchutil::store_workload_options opt;
  opt.num_keys = 12;
  opt.gets_per_reader = 24;
  opt.puts_per_writer = 12;
  opt.batch = 4;
  const auto rep = benchutil::run_store_measured(cfg, opt);
  EXPECT_TRUE(rep.all_complete);
  EXPECT_EQ(rep.hist.total_ops(), 3u * 24u + 12u);
  EXPECT_TRUE(rep.hist.verify().ok);
  EXPECT_GT(rep.ops_per_ktick, 0.0);
  // Batching: pipelined ops share envelopes.
  EXPECT_LT(rep.envelopes_per_op, rep.msgs_per_op);
}

// ----------------------------------------- lazy-fetch overflow counter

namespace {

/// netout capturing everything a directly-driven automaton sends.
struct capture_netout final : netout {
  std::vector<std::pair<process_id, message>> sent;
  void send(const process_id& to, message m) override {
    sent.emplace_back(to, std::move(m));
  }
  std::size_t count(msg_type t) const {
    std::size_t n = 0;
    for (const auto& [to, m] : sent) n += m.type == t ? 1 : 0;
    return n;
  }
};

}  // namespace

TEST(StoreServer, FetchBufferOverflowNackIsCountedAndObservable) {
  // A moved, un-seeded object buffers current-epoch client data behind a
  // lazy seed fetch; the 65th message overflows the 64-slot buffer and
  // is nacked, parking a client that only the NEXT reconfiguration
  // resumes. The ROADMAP-flagged gap: that state used to be invisible.
  // It must now bump the server's counter (and log an alarm).
  const auto cfg0 = small_cfg({"abd"}, /*num_shards=*/1, /*R=*/2, /*S=*/5);
  auto cfg1 = cfg0;
  cfg1.shard_protocols = {"fast_swmr"};  // name change: every object moves
  server s(std::make_shared<const shard_map>(cfg0), /*index=*/0);
  s.install_map(std::make_shared<const shard_map>(cfg1, /*epoch=*/1));
  const auto& row = obs::registry::instance().get_counter(
      "fastreg_store_fetch_overflow_nacks_total",
      "node=\"" + to_string(server_id(0)) + "\"");
  const std::uint64_t before = row.value();
  const auto overflow_nacks = [&] { return row.value() - before; };

  const object_id obj = key_object_id("parked");
  capture_netout net;
  for (std::uint32_t i = 0; i < 64; ++i) {
    message m;
    m.type = msg_type::read_req;
    m.obj = obj;
    m.epoch = 1;
    m.attempt = i;
    s.on_message(net, reader_id(0), m);
    EXPECT_EQ(overflow_nacks(), 0u) << "message " << i;
  }
  // 64 buffered messages, no nacks yet; the first message fanned the
  // fetch_req out to the 4 peers.
  EXPECT_EQ(net.count(msg_type::epoch_nack), 0u);
  EXPECT_EQ(net.count(msg_type::fetch_req), 4u);

  message overflow;
  overflow.type = msg_type::read_req;
  overflow.obj = obj;
  overflow.epoch = 1;
  overflow.attempt = 64;
  s.on_message(net, reader_id(1), overflow);
  EXPECT_EQ(overflow_nacks(), 1u);
  EXPECT_EQ(net.count(msg_type::epoch_nack), 1u);
  // The nack went to the overflowing client, tagged with its attempt so
  // the client recognizes (and parks on) it.
  const auto& [to, nack] = net.sent.back();
  EXPECT_EQ(to, reader_id(1));
  EXPECT_EQ(nack.type, msg_type::epoch_nack);
  EXPECT_EQ(nack.attempt, 64u);

  // Messages for a DIFFERENT object still run their own fetch; the
  // counter is cumulative across objects.
  message other;
  other.type = msg_type::read_req;
  other.obj = key_object_id("other");
  other.epoch = 1;
  s.on_message(net, reader_id(0), other);
  EXPECT_EQ(overflow_nacks(), 1u);
}

// --------------------------------------------------- blocking helper

/// The blocking helper's contract, the same on both transports: puts, a
/// get, and one 3-key read (k submits, one drain) whose never-written key
/// returns bottom; the history verifies.
void run_helper_script(store_frontend& fe) {
  ASSERT_TRUE(test::put_one(fe, 0, "alpha", "a1"));
  ASSERT_TRUE(test::put_one(fe, 0, "beta", "b1"));
  const auto a = test::get_one(fe, 0, "alpha");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->val, "a1");
  const auto many = test::get_many(fe, 1, {"alpha", "beta", "gamma"});
  ASSERT_TRUE(many.has_value());
  EXPECT_EQ(many->size(), 3u);
  for (const auto& res : *many) {
    if (res.key == "alpha") {
      EXPECT_EQ(res.val, "a1");
    } else if (res.key == "beta") {
      EXPECT_EQ(res.val, "b1");
    } else {
      EXPECT_EQ(res.key, "gamma");
      EXPECT_EQ(res.val, "");  // never written: bottom
      EXPECT_EQ(res.ts, k_initial_ts);
    }
  }
  const auto hist = fe.gather();
  EXPECT_EQ(hist.key_count(), 3u);
  EXPECT_TRUE(hist.all_complete());
  EXPECT_TRUE(hist.verify().ok);
}

TEST(SimStore, PutGetAndMultiGetThroughBlockingHelper) {
  sim_store s(small_cfg({"fast_swmr", "abd"}, 4, /*R=*/2, /*S=*/5));
  rng r(4);
  sim_frontend fe(s, r);
  run_helper_script(fe);
}

// -------------------------------------------------------------- TCP store

TEST(TcpStore, PutGetAndMultiGetOverSockets) {
  tcp_store ts(small_cfg({"fast_swmr", "abd"}, 4, /*R=*/2, /*S=*/5));
  ts.start();
  run_helper_script(ts.frontend());
  ts.stop();
}

TEST(TcpStore, ConcurrentClientsStayAtomicPerKey) {
  tcp_store ts(small_cfg({"fast_swmr", "abd"}, 4, /*R=*/2, /*S=*/5));
  ts.start();
  std::thread writer([&] {
    for (int n = 1; n <= 12; ++n) {
      ASSERT_TRUE(test::put_one(ts.frontend(), 0,
                                "k" + std::to_string(n % 4),
                                "v" + std::to_string(n)));
    }
  });
  std::vector<std::thread> readers;
  for (std::uint32_t i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      for (int n = 0; n < 8; ++n) {
        const auto res =
            test::get_many(ts.frontend(), i, {"k0", "k1", "k2", "k3"});
        ASSERT_TRUE(res.has_value());
        EXPECT_EQ(res->size(), 4u);
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  const auto hist = ts.gather();
  const auto res = hist.verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

}  // namespace
}  // namespace fastreg::store
