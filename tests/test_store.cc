// The sharded multi-object store: routing, batching, per-key atomicity
// under random schedules, every registry protocol as a shard protocol,
// the blocking helper on both transports, and the TCP deployment.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <thread>

#include "benchutil/workload.h"
#include "crypto/sig.h"
#include "obs/metrics.h"
#include "registers/maxmin.h"
#include "registers/registry.h"
#include "store/batching.h"
#include "store/shard_map.h"
#include "store/sim_store.h"
#include "store/store.h"
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

// -------------------------------------------------------- store protocol

/// A store's metadata, read through the protocol interface callers use.
void expect_store_rounds(const protocol& p, int read_rounds,
                         int write_rounds) {
  EXPECT_EQ(p.name(), "store");
  EXPECT_EQ(p.read_rounds(), read_rounds);
  EXPECT_EQ(p.write_rounds(), write_rounds);
}

TEST(StoreProtocol, NameAndRoundsAreTheMaximumOverShards) {
  expect_store_rounds(store_protocol(small_cfg({"fast_swmr"})), 1, 1);
  expect_store_rounds(store_protocol(small_cfg({"fast_swmr", "abd"})), 2, 1);
  expect_store_rounds(store_protocol(small_cfg({"mwmr"})), 2, 2);
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

TEST(SimStore, MaxminGathersStayBoundedWhileAServerIsDown) {
  // A crashed server never gossips, so no read's gather on a live server
  // ever hears from all S. Each reader's newer read supersedes its older
  // gathers: every live server holds at most R per object throughout.
  const store_config cfg = small_cfg({"maxmin"}, 2, /*R=*/2, /*S=*/5);
  sim_store s(cfg);
  s.crash_server(4);
  rng r(11);
  sim_frontend fe(s, r);
  sim::uniform_delay d(50, 150);
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3"};
  auto w = fe.open_session(writer_id(0), keys.size());
  std::vector<std::unique_ptr<async_session>> readers;
  for (std::uint32_t i = 0; i < cfg.base.R(); ++i) {
    readers.push_back(fe.open_session(reader_id(i), keys.size()));
  }
  std::size_t most = 0;
  const auto check_gathers = [&] {
    for (std::uint32_t i = 0; i + 1 < cfg.base.S(); ++i) {
      for (const auto& k : keys) {
        const auto* mm = dynamic_cast<const maxmin_server*>(
            s.server_at(i).replica(key_object_id(k)));
        if (mm == nullptr) continue;
        most = std::max(most, mm->open_gathers());
        ASSERT_LE(mm->open_gathers(), cfg.base.R())
            << "server " << i << " key " << k;
      }
    }
  };
  std::uint64_t reads = 0;
  for (std::uint64_t round = 0; reads < 1200; ++round) {
    for (const auto& k : keys) {
      if (round % 4 == 0) {
        ASSERT_EQ(w->try_put(k, "v" + std::to_string(round) + k),
                  submit_status::submitted);
      }
      for (auto& rd : readers) {
        ASSERT_EQ(rd->try_get(k), submit_status::submitted);
        ++reads;
      }
    }
    w->pump();
    for (auto& rd : readers) rd->pump();
    while (w->in_flight() > 0 || readers[0]->in_flight() > 0 ||
           readers[1]->in_flight() > 0) {
      ASSERT_GT(s.run_timed(r, d, 1), 0u);
      check_gathers();
      ASSERT_FALSE(HasFatalFailure());
      w->pump();
      for (auto& rd : readers) rd->pump();
    }
    (void)w->take_results();
    for (auto& rd : readers) (void)rd->take_results();
  }
  EXPECT_GT(most, 0u);
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
  EXPECT_TRUE(rep.hist.all_complete());
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

/// netout recording each send as one batch of rcounters; its send_batch
/// keeps netout's contract and empties the caller's vector.
struct batch_netout final : netout {
  std::vector<std::pair<process_id, std::vector<std::uint64_t>>> batches;
  void send(const process_id& to, message m) override {
    batches.emplace_back(to, std::vector<std::uint64_t>{m.rcounter});
  }
  void send_batch(const process_id& to, std::vector<message>& msgs) override {
    auto& [dest, b] = batches.emplace_back(to, std::vector<std::uint64_t>{});
    for (const auto& m : msgs) b.push_back(m.rcounter);
    msgs.clear();
  }
};

message numbered(std::uint64_t n) {
  message m;
  m.type = msg_type::read_req;
  m.rcounter = n;
  return m;
}

}  // namespace

TEST(BatchCollector, FlushSendsOneBatchPerDestinationAndEmptiesEveryScratch) {
  batch_collector out;
  batch_netout net;
  out.add(server_id(2), numbered(1));
  out.add(server_id(0), numbered(2));
  out.add(server_id(2), numbered(3));
  out.add(server_id(1), numbered(4));
  EXPECT_EQ(out.parked(), 4u);
  out.flush(net);
  EXPECT_EQ(out.parked(), 0u);
  using batches =
      std::vector<std::pair<process_id, std::vector<std::uint64_t>>>;
  // First-touch order, one batch per destination.
  EXPECT_EQ(net.batches, (batches{{server_id(2), {1, 3}},
                                  {server_id(0), {2}},
                                  {server_id(1), {4}}}));
  // A step touching fewer destinations leaves the idle scratch empty too.
  net.batches.clear();
  out.add(server_id(1), numbered(5));
  out.flush(net);
  EXPECT_EQ(out.parked(), 0u);
  EXPECT_EQ(net.batches, (batches{{server_id(1), {5}}}));
  // netout's default send_batch (per-message sends) empties it as well.
  capture_netout plain;
  out.add(server_id(0), numbered(6));
  out.add(server_id(0), numbered(7));
  out.flush(plain);
  EXPECT_EQ(out.parked(), 0u);
  ASSERT_EQ(plain.sent.size(), 2u);
  EXPECT_EQ(plain.sent[1].second.rcounter, 7u);
}

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

TEST(StoreServer, HandoffMessagesCarryTheTraceOfTheirCause) {
  // A server's own handoff messages join the op that caused them: the
  // lazy fetch's fetch_reqs carry the fenced message's trace and span,
  // and the seeded fetch_ack pushed to a subscriber carries the trace and
  // span of the seed_req that seeded the object.
  const auto cfg0 = small_cfg({"abd"}, /*num_shards=*/1, /*R=*/2, /*S=*/5);
  auto cfg1 = cfg0;
  cfg1.shard_protocols = {"fast_swmr"};  // name change: every object moves
  server s(std::make_shared<const shard_map>(cfg0), /*index=*/0);
  s.install_map(std::make_shared<const shard_map>(cfg1, /*epoch=*/1));
  const auto traced = [](msg_type type, object_id obj, std::uint64_t trace,
                         std::uint16_t span) {
    message m;
    m.type = type;
    m.obj = obj;
    m.epoch = 1;
    m.trace = trace;
    m.span = span;
    return m;
  };

  // One delivered batch fences two unseeded objects: each object's fetch
  // names its own op, not the batch's head.
  const object_id a = key_object_id("a");
  const object_id b = key_object_id("b");
  capture_netout net;
  const std::vector<message> batch = {
      traced(msg_type::read_req, a, 0xa1, 3),
      traced(msg_type::read_req, b, 0xb2, 5)};
  s.on_batch(net, reader_id(0), batch);
  for (const auto& req : batch) {
    std::size_t fetches = 0;
    for (const auto& [to, m] : net.sent) {
      if (m.type != msg_type::fetch_req || m.obj != req.obj) continue;
      ++fetches;
      EXPECT_EQ(m.trace, req.trace) << to_string(to);
      EXPECT_EQ(m.span, req.span) << to_string(to);
    }
    EXPECT_EQ(fetches, 4u) << req.obj;  // one per peer
  }

  // A peer's fetch finds this server empty-handed and subscribes; the
  // seed_req then seeds the object and pushes it to the peer.
  const object_id c = key_object_id("c");
  s.on_message(net, server_id(1), traced(msg_type::fetch_req, c, 0xd4, 1));
  net.sent.clear();
  s.on_message(net, reader_id(0), traced(msg_type::seed_req, c, 0xc3, 7));
  std::size_t pushes = 0;
  for (const auto& [to, m] : net.sent) {
    if (m.type != msg_type::fetch_ack) continue;
    ++pushes;
    EXPECT_EQ(to, server_id(1));
    EXPECT_EQ(m.rcounter & k_fetch_seeded, k_fetch_seeded);
    EXPECT_EQ(m.trace, 0xc3u);
    EXPECT_EQ(m.span, 7u);
  }
  EXPECT_EQ(pushes, 1u);
}

TEST(StoreServer, InstallMapNacksEachBufferedFetchOnce) {
  // install_map retires every lazy fetch of the superseded generation:
  // each buffered client message is nacked exactly once, and records left
  // with neither a replica nor a handoff block are dropped. Enough objects
  // that the table's probe runs cluster, so the dead records' erases shift
  // live ones.
  const auto cfg0 = small_cfg({"abd"}, /*num_shards=*/1, /*R=*/4, /*S=*/5);
  auto cfg1 = cfg0;
  cfg1.shard_protocols = {"fast_swmr"};  // every object moves at epoch 1
  server s(std::make_shared<const shard_map>(cfg0), /*index=*/0);
  capture_netout net;
  std::uint32_t attempt = 0;
  const auto send = [&](msg_type type, object_id obj, epoch_t epoch,
                        const process_id& from) {
    message m;
    m.type = type;
    m.obj = obj;
    m.epoch = epoch;
    m.attempt = ++attempt;
    s.on_message(net, from, m);
    return m.attempt;
  };
  const auto id = [](const char* prefix, int i) {
    return key_object_id(prefix + std::to_string(i));
  };

  // Epoch 0 hosts h0..h39; epoch 1 fences them all.
  for (int i = 0; i < 40; ++i) {
    send(msg_type::read_req, id("h", i), 0, reader_id(0));
  }
  ASSERT_EQ(s.objects_hosted(), 40u);
  s.install_map(std::make_shared<const shard_map>(cfg1, /*epoch=*/1));
  ASSERT_EQ(s.objects_hosted(), 0u);

  // Seeds land for h0..h9 and for the fresh s0..s9.
  std::vector<object_id> seeded;
  for (int i = 0; i < 10; ++i) {
    seeded.push_back(id("h", i));
    seeded.push_back(id("s", i));
  }
  for (const auto obj : seeded) {
    send(msg_type::seed_req, obj, 1, reader_id(0));
  }
  ASSERT_EQ(s.seeded_count(), seeded.size());

  // Current-epoch reads of un-seeded objects -- the fenced h10..h39 and
  // the never-hosted f0..f119 -- wait behind lazy fetches, one to three
  // readers per object.
  std::map<std::tuple<process_id, object_id, std::uint32_t>, int> waiting;
  const auto buffer = [&](object_id obj, int readers) {
    for (int r = 0; r < readers; ++r) {
      const auto a = send(msg_type::read_req, obj, 1, reader_id(r));
      waiting[{reader_id(r), obj, a}] = 0;
    }
  };
  for (int i = 10; i < 40; ++i) buffer(id("h", i), 1 + i % 3);
  for (int i = 0; i < 120; ++i) buffer(id("f", i), 1 + i % 3);
  ASSERT_EQ(net.count(msg_type::epoch_nack), 0u);

  // Epoch 2 keeps fast_swmr, so nothing moves; only the fetches retire.
  net.sent.clear();
  s.install_map(std::make_shared<const shard_map>(cfg1, /*epoch=*/2));
  // The nacks leave with the server's next step.
  message poke;
  poke.type = msg_type::epoch_nack;
  s.on_message(net, reader_id(0), poke);
  for (const auto& [to, m] : net.sent) {
    ASSERT_EQ(m.type, msg_type::epoch_nack);
    EXPECT_EQ(m.epoch, 2u);
    const auto it = waiting.find({to, m.obj, m.attempt});
    ASSERT_NE(it, waiting.end()) << to_string(to) << " " << m.obj;
    ++it->second;
  }
  for (const auto& [msg, nacks] : waiting) {
    EXPECT_EQ(nacks, 1) << std::get<1>(msg) << " attempt "
                        << std::get<2>(msg);
  }

  // Only the seeded replicas survive the install.
  auto listed = s.list_objects();
  std::sort(listed.begin(), listed.end());
  std::sort(seeded.begin(), seeded.end());
  EXPECT_EQ(listed, seeded);
  EXPECT_EQ(s.objects_hosted(), seeded.size());
  EXPECT_TRUE(s.unseeded_moved_objects().empty());
}

TEST(StoreClient, OnMessageIsAOneMessageStep) {
  // The transports deliver every step through on_batch; a direct
  // on_message call is the same step with one message in it. An epoch
  // nack at the get's own epoch parks the get.
  const store_protocol proto(small_cfg({"abd"}));
  const auto a = proto.make_reader(proto.config().base, 0);
  auto& c = dynamic_cast<client&>(*a);
  capture_netout net;
  const object_id obj = key_object_id("alpha");
  c.begin_get("alpha", obj);
  c.flush(net);
  ASSERT_EQ(net.count(msg_type::read_req), proto.config().base.S());
  message nack;
  nack.type = msg_type::epoch_nack;
  nack.obj = obj;
  nack.epoch = c.epoch();
  nack.attempt = net.sent.back().second.attempt;
  a->on_message(net, server_id(2), nack);
  EXPECT_EQ(c.parked_count(), 1u);
  EXPECT_TRUE(c.has_pending(obj));
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

// --------------------------------------------------- fault vocabulary

/// Server k's timestamp for `obj`, read in a deployment visit: nullopt
/// when k is down, k_initial_ts while it holds no replica.
std::optional<ts_t> replica_ts(deployment& d, std::uint32_t k,
                               object_id obj) {
  ts_t ts = k_initial_ts;
  const bool up = d.visit(server_id(k), [&](automaton& a) {
    const automaton* rep = dynamic_cast<server&>(a).replica(obj);
    if (rep != nullptr) {
      ts = dynamic_cast<const seedable&>(*rep).peek_state().ts;
    }
  });
  if (!up) return std::nullopt;
  return ts;
}

/// The four faults of store::deployment, the same on both transports,
/// checked through the deployment alone (S = 5, t = 1, one abd
/// register). `settle(done)` lets held-back messages land and returns
/// done().
void run_fault_script(deployment& d, store_frontend& fe,
                      const std::function<bool(
                          const std::function<bool()>&)>& settle) {
  const std::string key = "reg";
  const object_id obj = key_object_id(key);
  const auto noop = [](automaton&) {};

  d.crash_server(4);
  EXPECT_FALSE(d.visit(server_id(4), noop));
  ASSERT_TRUE(test::put_one(fe, 0, key, "v1"));
  ASSERT_TRUE(test::get_one(fe, 0, key).has_value());

  d.restart_server(4);
  EXPECT_TRUE(d.visit(server_id(4), noop));

  // The put completes on servers 1-4 while server 0's copy stays behind.
  d.isolate_server(0);
  ASSERT_TRUE(test::put_one(fe, 0, key, "v2"));
  const auto got = test::get_one(fe, 0, key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->val, "v2");
  const auto held = replica_ts(d, 0, obj);
  ASSERT_TRUE(held.has_value());
  EXPECT_LT(*held, got->ts);

  d.heal_server(0);
  EXPECT_TRUE(settle([&] { return replica_ts(d, 0, obj) >= got->ts; }));
  EXPECT_TRUE(fe.gather().verify().ok);
}

TEST(SimStore, FaultVocabularyCrashRestartIsolateHeal) {
  sim_store s(small_cfg({"abd"}, 1, /*R=*/1, /*S=*/5));
  rng r(5);
  sim_frontend fe(s, r);
  run_fault_script(s, fe, [&](const std::function<bool()>& done) {
    while (!s.idle() && s.run_random(r) > 0) {
    }
    return done();
  });
}

// -------------------------------------------------------------- TCP store

TEST(TcpStore, FaultVocabularyCrashRestartIsolateHeal) {
  tcp_store ts(small_cfg({"abd"}, 1, /*R=*/1, /*S=*/5));
  ts.start();
  run_fault_script(ts, ts.frontend(), [](const std::function<bool()>& done) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  });
  ts.stop();
}

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
