// Flight recorder (src/obs/recorder.h + src/obs/timeline.h): ring
// semantics and sizing, the dump grammar, trace/span on the wire, rounds
// per op counted from the wire against the histories, trace propagation
// across a live reshard on both transports, the reactor-thread TSan
// surface, and the forensics path -- a checker failure must leave
// behind per-node dumps that merge into a causally-valid timeline and
// reject tampering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "benchutil/stress.h"
#include "benchutil/workload.h"
#include "crypto/sig.h"
#include "net/framing.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/timeline.h"
#include "reconfig/coordinator.h"
#include "registers/message.h"
#include "registers/registry.h"
#include "store/sim_store.h"
#include "store/tcp_store.h"
#include "store_test_util.h"

namespace fastreg {
namespace {

using benchutil::run_sim_stress;
using benchutil::run_tcp_stress;
using benchutil::stress_options;
using net::encode_batch_frame;
using net::frame_buffer;

/// Restores the recording gate on scope exit so a failing ASSERT cannot
/// leave it flipped for the rest of the binary.
struct recording_guard {
  bool prev;
  explicit recording_guard(bool on) : prev(obs::recording_active()) {
    obs::set_recording(on);
  }
  ~recording_guard() { obs::set_recording(prev); }
};

// ------------------------------------------------------ ring semantics --

TEST(RecorderRing, CapacityRoundsUpAndOverwritesOldest) {
  obs::recorder r(100);
  EXPECT_EQ(r.capacity(), 128u);
  for (int i = 0; i < 200; ++i) {
    r.record(obs::rec_event::send, 1, 0, 0, server_id(0), 7, 0,
             static_cast<ts_t>(i));
  }
  const auto es = r.entries();
  ASSERT_EQ(es.size(), 128u);
  // Oldest-first, and the ring kept the newest 128 of the 200.
  EXPECT_EQ(es.front().ts, 72);
  EXPECT_EQ(es.back().ts, 199);
  for (std::size_t i = 1; i < es.size(); ++i) {
    EXPECT_EQ(es[i].ts, es[i - 1].ts + 1);
  }
  r.reset();
  EXPECT_TRUE(r.entries().empty());
}

TEST(RecorderRing, RingSizeFromEnvIsParsedStrictly) {
  const char* prev = std::getenv("FASTREG_OBS_RING");
  const std::string saved = prev != nullptr ? prev : "";
  // A node's ring is sized when its recorder is first created, so each
  // case asks for a node id nothing else in the binary uses.
  const auto ring_for = [](const char* value, std::uint32_t node) {
    setenv("FASTREG_OBS_RING", value, 1);
    return obs::recorder_for(server_id(90'000 + node)).capacity();
  };
  EXPECT_EQ(ring_for("1000", 1), 1024u);
  EXPECT_EQ(ring_for("12abc", 2), 4096u) << "garbage keeps the default";
  EXPECT_EQ(ring_for("0", 3), 4096u) << "zero keeps the default";
  EXPECT_EQ(ring_for("99999999999", 4), 4096u)
      << "more than 2^24 slots keeps the default";
  if (prev != nullptr) {
    setenv("FASTREG_OBS_RING", saved.c_str(), 1);
  } else {
    unsetenv("FASTREG_OBS_RING");
  }
}

TEST(RecorderRing, ObjectFilterAndFieldRoundTrip) {
  obs::recorder r(64);
  r.record(obs::rec_event::recv, 0xabc, 3,
           static_cast<std::uint8_t>(msg_type::read_req), writer_id(1),
           42, 5, 9);
  r.record(obs::rec_event::serve, 0xdef, 0,
           static_cast<std::uint8_t>(msg_type::write_req), reader_id(0),
           99, 1, 2);
  const auto only42 = r.entries(object_id{42});
  ASSERT_EQ(only42.size(), 1u);
  const auto& e = only42[0];
  EXPECT_EQ(e.ev, obs::rec_event::recv);
  EXPECT_EQ(e.trace, 0xabcu);
  EXPECT_EQ(e.span, 3u);
  EXPECT_EQ(e.mtype, static_cast<std::uint8_t>(msg_type::read_req));
  EXPECT_EQ(e.peer, writer_id(1));
  EXPECT_EQ(e.obj, 42u);
  EXPECT_EQ(e.epoch, 5u);
  EXPECT_EQ(e.ts, 9);
  EXPECT_EQ(r.entries().size(), 2u);
}

TEST(RecorderRing, DumpGrammarValidatesAndTamperingDoesNot) {
  obs::recorder r(64);
  r.record(obs::rec_event::send, 0x2a, 1,
           static_cast<std::uint8_t>(msg_type::read_req), server_id(0),
           42, 0, 7);
  r.record(obs::rec_event::park, 0x2a, 1, 0, reader_id(0), 42, 1, 0);
  // Codes past the last wire kind are not message types either.
  r.record(obs::rec_event::recv, 0x2a, 1,
           static_cast<std::uint8_t>(k_max_msg_type + 1), server_id(1), 42,
           1, 0);
  r.record(obs::rec_event::recv, 0x2a, 1, 255, server_id(1), 42, 1, 0);
  r.record(obs::rec_event::recv, 0x2a, 1, k_max_msg_type, server_id(1), 42,
           1, 0);
  const auto dump = r.dump("r0");
  EXPECT_EQ(obs::validate_recorder_dump(dump), "");
  const auto parsed = obs::parse_recorder_dump(dump);
  ASSERT_EQ(parsed.size(), 5u);
  EXPECT_EQ(parsed[0].node, "r0");
  EXPECT_EQ(parsed[0].trace, 0x2au);
  EXPECT_EQ(parsed[0].ev, "send");
  EXPECT_EQ(parsed[0].type, "READ");
  EXPECT_EQ(parsed[1].ev, "park");
  // Code 0 (no message) and out-of-range codes render as "-".
  EXPECT_EQ(parsed[1].type, "-");
  EXPECT_EQ(parsed[2].type, "-");
  EXPECT_EQ(parsed[3].type, "-");
  EXPECT_EQ(parsed[4].type, "FETCHACK");
  // A corrupted event token must be rejected, not skipped.
  std::string mutated = dump;
  const auto pos = mutated.find("ev=send");
  ASSERT_NE(pos, std::string::npos);
  mutated.replace(pos, 7, "ev=zzzz");
  EXPECT_NE(obs::validate_recorder_dump(mutated), "");
}

TEST(RecorderRing, EveryWireKindRendersThroughTheOneNameTable) {
  // The recorder keeps no name table of its own: a dump names each wire
  // kind exactly as to_string(msg_type) does.
  obs::recorder r(64);
  for (unsigned c = 1; c <= k_max_msg_type; ++c) {
    r.record(obs::rec_event::recv, 0x2a, 1, static_cast<std::uint8_t>(c),
             server_id(0), 42, 1, static_cast<ts_t>(c));
  }
  const auto dump = r.dump("s1");
  EXPECT_EQ(obs::validate_recorder_dump(dump), "");
  const auto parsed = obs::parse_recorder_dump(dump);
  ASSERT_EQ(parsed.size(), static_cast<std::size_t>(k_max_msg_type));
  for (unsigned c = 1; c <= k_max_msg_type; ++c) {
    EXPECT_EQ(parsed[c - 1].type, to_string(static_cast<msg_type>(c))) << c;
  }
}

TEST(RecorderCatapult, ValidatorAcceptsRenderAndRejectsGarbage) {
  obs::recorder r(64);
  r.record(obs::rec_event::send, 0x2a, 0,
           static_cast<std::uint8_t>(msg_type::read_req), server_id(1),
           42, 0, 7);
  r.record(obs::rec_event::recv, 0x2a, 0,
           static_cast<std::uint8_t>(msg_type::read_ack), server_id(1),
           42, 0, 7);
  const auto merged =
      obs::merge_events({obs::parse_recorder_dump(r.dump("r0"))});
  const auto json = obs::render_catapult(merged);
  EXPECT_EQ(obs::validate_catapult(json), "");
  EXPECT_NE(obs::validate_catapult("not json"), "");
  EXPECT_NE(obs::validate_catapult("{\"ph\":\"i\"}"), "")
      << "an object is not the array format";
  EXPECT_NE(obs::validate_catapult("[{\"ph\":5}]"), "")
      << "ph must be a string";
  EXPECT_NE(obs::validate_catapult(
                "[{\"ph\":\"i\",\"name\":\"x\",\"pid\":1,\"tid\":1}]"),
            "")
      << "a non-metadata event needs ts";
}

TEST(RecorderCatapult, ValidatorWalksNestedArraysAndLiterals) {
  // An "args" object holding every JSON kind the walker descends into:
  // nested and empty arrays, true / false / null.
  const std::string ok =
      R"([{"ph":"i","name":"x","ts":1,"pid":1,"tid":1,)"
      R"("args":{"ids":[1,[2,3],[]],"flags":[true,false,null],)"
      R"("on":true,"v":null}}])";
  EXPECT_EQ(obs::validate_catapult(ok), "");
  EXPECT_NE(obs::validate_catapult(
                R"([{"ph":"i","name":"x","ts":1,"pid":1,"tid":1,"on":tru}])"),
            "")
      << "a truncated literal";
  EXPECT_NE(obs::validate_catapult(
                R"([{"ph":"i","name":"x","ts":1,"pid":1,"tid":1,"a":[1,2}])"),
            "")
      << "an array closed by a brace";
  EXPECT_NE(obs::validate_catapult(
                R"([{"ph":"i","name":"x","ts":null,"pid":1,"tid":1}])"),
            "")
      << "a literal where ts must be a number";
}

// ------------------------------------------------------------ the wire --

TEST(RecorderWire, TraceAndSpanSurviveMsgAndBatchFrames) {
  message m;
  m.type = msg_type::read_req;
  m.obj = 42;
  m.trace = 0x1122334455667788ull;
  m.span = 513;
  // A one-message send: a batch frame of count 1.
  const auto bytes =
      encode_batch_frame(reader_id(0), std::span<const message>(&m, 1));
  frame_buffer fb;
  fb.feed(bytes.data(), bytes.size());
  const auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->batch.size(), 1u);
  EXPECT_EQ(f->batch[0].trace, m.trace);
  EXPECT_EQ(f->batch[0].span, m.span);
  EXPECT_EQ(f->batch[0], m);

  message m2 = m;
  m2.trace = 7;
  m2.span = 0;
  const std::vector<message> msgs{m, m2};
  const auto batch = encode_batch_frame(writer_id(0), msgs);
  frame_buffer fb2;
  fb2.feed(batch.data(), batch.size());
  const auto bf = fb2.next();
  ASSERT_TRUE(bf.has_value());
  ASSERT_EQ(bf->batch.size(), 2u);
  EXPECT_EQ(bf->batch[0].trace, m.trace);
  EXPECT_EQ(bf->batch[0].span, m.span);
  EXPECT_EQ(bf->batch[1].trace, 7u);
  EXPECT_EQ(bf->batch[1].span, 0u);
}

// -------------------------------------------------- gate off = no events --

TEST(RecorderGate, HooksCaptureNothingWhenOff) {
  recording_guard guard(false);
  obs::recorder_reset_all();
  stress_options opt;
  opt.protocol = "abd";
  opt.S = 5;
  opt.t = 1;
  opt.R = 2;
  opt.W = 1;
  opt.puts_per_writer = 40;
  opt.gets_per_reader = 40;
  opt.seed = 1;
  opt.label = "rec_gate_off";
  const auto rep = run_sim_stress(opt);
  EXPECT_TRUE(rep.ok()) << rep.describe();
  // Every ring stayed empty: recorder_dump_all drops empty dumps.
  EXPECT_TRUE(obs::recorder_dump_all().empty());
}

// -------------------------------------------------- rounds on the wire --

/// Joins every completed op of `h` to its client's sends by trace id.
/// Every round broadcasts one request type under the op's trace, so an
/// op's rounds must be the distinct types its client sent under it: an
/// automaton that misreports its rounds in its completions fails here.
/// The mean rounds per reads and per writes must also be theory's.
void expect_rounds(const std::string& what, const checker::history& h,
                   const system_config& cfg, double rd, double wr) {
  std::map<std::pair<process_id, std::uint64_t>, std::set<std::uint8_t>>
      sent;
  const auto collect = [&](const process_id& client) {
    for (const auto& e : obs::recorder_for(client).entries()) {
      if (e.ev == obs::rec_event::send && e.trace != 0) {
        sent[{client, e.trace}].insert(e.mtype);
      }
    }
  };
  for (std::uint32_t j = 0; j < cfg.W(); ++j) collect(writer_id(j));
  for (std::uint32_t i = 0; i < cfg.R(); ++i) collect(reader_id(i));
  double rounds[2] = {0, 0};  // reads, writes
  std::size_t ops[2] = {0, 0};
  for (const auto& op : h.ops()) {
    if (!op.response_time) continue;
    const auto it = sent.find({op.client, op.trace});
    ASSERT_NE(it, sent.end()) << what << ": no sends under trace "
                              << op.trace << " by " << to_string(op.client);
    EXPECT_EQ(static_cast<std::size_t>(op.rounds), it->second.size())
        << what << ": trace " << op.trace;
    rounds[op.is_write] += op.rounds;
    ++ops[op.is_write];
  }
  // Every traced send belongs to some op in the history.
  EXPECT_EQ(sent.size(), ops[0] + ops[1]) << what;
  ASSERT_GT(ops[0], 0u) << what;
  ASSERT_GT(ops[1], 0u) << what;
  EXPECT_DOUBLE_EQ(rounds[0] / static_cast<double>(ops[0]), rd) << what;
  EXPECT_DOUBLE_EQ(rounds[1] / static_cast<double>(ops[1]), wr) << what;
}

/// Theory's read/write rounds for the rows also checked over TCP.
const std::vector<std::tuple<const char*, double, double>> k_round_cases = {
    {"fast_swmr", 1.0, 1.0}, {"abd", 2.0, 1.0}, {"mwmr", 2.0, 2.0}};

/// S = 7, t = 1, in the row's feasible region: two readers (one for
/// single_reader), two writers for the multi-writer rows, and signatures
/// for fast_bft.
system_config round_case_cfg(const std::string& name) {
  const auto proto = make_protocol(name);
  system_config cfg;
  cfg.servers = 7;
  cfg.t_failures = 1;
  cfg.readers = name == "single_reader" ? 1 : 2;
  if (proto->multi_writer()) cfg.writers = 2;
  if (name == "fast_bft") {
    cfg.sigs = crypto::make_signature_scheme("oracle", /*seed=*/1234);
  }
  return cfg;
}

TEST(RecorderRounds, WireRequestsMatchHistoryRoundsOnSim) {
  // Every row's declared rounds, against its history and its wire: a row
  // wired to the wrong read rule or writer flag fails here.
  recording_guard guard(true);
  for (const auto& name : protocol_names()) {
    const auto proto = make_protocol(name);
    const system_config cfg = round_case_cfg(name);
    ASSERT_TRUE(proto->feasible(cfg)) << name;
    benchutil::workload_options opt;
    opt.num_writes = 10;
    opt.reads_per_reader = 10;
    obs::recorder_reset_all();
    const auto rep = benchutil::run_measured(*proto, cfg, opt);
    ASSERT_TRUE(rep.all_complete) << name;
    expect_rounds(name, rep.hist, cfg, proto->read_rounds(),
                  proto->write_rounds());
  }
}

TEST(RecorderRounds, WireRequestsMatchHistoryRoundsOverTcp) {
  recording_guard guard(true);
  for (const auto& [proto, rd, wr] : k_round_cases) {
    const system_config cfg = round_case_cfg(proto);
    obs::recorder_reset_all();
    store::tcp_store ts(store::test::one_register(cfg, proto),
                        net::node_options{});
    ts.start();
    {
      std::vector<store::test::register_client> clients;
      for (std::uint32_t j = 0; j < cfg.W(); ++j) {
        clients.emplace_back(ts.frontend(), writer_id(j));
      }
      for (std::uint32_t i = 0; i < cfg.R(); ++i) {
        clients.emplace_back(ts.frontend(), reader_id(i));
      }
      for (int k = 0; k < 10; ++k) {
        for (std::uint32_t j = 0; j < cfg.W(); ++j) {
          ASSERT_TRUE(clients[j].write("v" + std::to_string(k))) << proto;
        }
        for (std::uint32_t i = 0; i < cfg.R(); ++i) {
          ASSERT_TRUE(clients[cfg.W() + i].read().has_value()) << proto;
        }
      }
    }
    const auto hists = ts.gather();
    ts.stop();
    const auto& hist = hists.all().at(store::test::k_register_key);
    expect_rounds(std::string(proto) + " over tcp", hist, cfg, rd, wr);
  }
}

// --------------------------------- trace propagation across a reshard --

/// Full merged timeline of every node's ring, for live-reshard runs.
std::vector<obs::timeline_event> merged_timeline() {
  std::vector<std::vector<obs::timeline_event>> per_node;
  for (const auto& [node, dump] : obs::recorder_dump_all()) {
    EXPECT_EQ(obs::validate_recorder_dump(dump), "") << node;
    per_node.push_back(obs::parse_recorder_dump(dump));
  }
  return obs::merge_events(std::move(per_node));
}

/// Asserts the park -> resume contract on a merged timeline: every park
/// has a resume with the SAME trace id and the NEXT span, and the
/// object's quorum seed install (the serve of a SEED frame) sits
/// between them. Returns the number of parks found.
std::size_t check_park_resume(
    const std::vector<obs::timeline_event>& merged, bool expect_seed) {
  std::size_t parks = 0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const auto& p = merged[i];
    if (p.ev != "park") continue;
    ++parks;
    EXPECT_NE(p.trace, 0u) << "parked op lost its trace id";
    bool resumed = false;
    bool seeded = false;
    for (std::size_t j = i + 1; j < merged.size(); ++j) {
      const auto& e = merged[j];
      if (e.ev == "serve" && e.type == "SEED" && e.obj == p.obj) {
        seeded = true;
      }
      if (e.ev == "resume" && e.node == p.node && e.trace == p.trace &&
          e.obj == p.obj) {
        // A new attempt is a new span of the same trace.
        EXPECT_EQ(e.span, p.span + 1);
        EXPECT_TRUE(!expect_seed || seeded)
            << "resume before the object's seed install in merged order";
        resumed = true;
        break;
      }
    }
    EXPECT_TRUE(resumed) << "park without a later resume, trace=0x"
                         << std::hex << p.trace;
  }
  return parks;
}

/// Every wire message names the op that caused it: client data, the
/// coordinator's control plane, gossip and the servers' handoff traffic.
void expect_every_send_traced(const std::vector<obs::timeline_event>& merged) {
  for (const auto& e : merged) {
    if (e.ev == "send") {
      EXPECT_NE(e.trace, 0u) << "untraced " << e.type << " from " << e.node
                             << " to " << e.peer;
    }
  }
}

TEST(RecorderReshard, SimParkSeedResumeKeepTraceInCausalOrder) {
  recording_guard guard(true);
  // abd -> fast_swmr moves every object through the full dual-quorum
  // handoff; ops that hit a migrating object park. Not every seed
  // parks, so hunt a few until one does (deterministic per seed).
  std::size_t parks = 0;
  for (std::uint64_t seed = 1; seed <= 10 && parks == 0; ++seed) {
    stress_options opt;
    opt.protocol = "abd";
    opt.S = 8;
    opt.t = 1;
    opt.R = 2;
    opt.W = 1;
    opt.num_shards = 2;
    opt.num_keys = 4;
    opt.seed = seed;
    opt.label = "rec_sim_reshard";
    opt.reshard = true;
    opt.reshard_num_shards = 3;
    opt.reshard_protocols = {"fast_swmr"};
    opt.puts_per_writer = 150;
    opt.gets_per_reader = 150;
    const auto rep = run_sim_stress(opt);
    ASSERT_TRUE(rep.ok()) << rep.describe();
    const auto merged = merged_timeline();
    EXPECT_EQ(obs::validate_timeline(merged), "");
    // Sim events only: the run never touched a reactor thread.
    for (const auto& e : merged) EXPECT_TRUE(e.sim_domain) << e.node;
    expect_every_send_traced(merged);
    parks = check_park_resume(merged, /*expect_seed=*/true);
  }
  EXPECT_GT(parks, 0u)
      << "no op ever parked across 10 seeds of a full-handoff reshard";
}

TEST(RecorderReshard, TcpReshardCarriesTraceIdsEndToEnd) {
  recording_guard guard(true);
  stress_options opt;
  opt.protocol = "abd";
  opt.S = 5;
  opt.t = 1;
  opt.R = 2;
  opt.W = 1;
  opt.num_shards = 2;
  opt.num_keys = 4;
  opt.seed = benchutil::stress_seed_from_env();
  opt.label = "rec_tcp_reshard";
  opt.reshard = true;
  opt.reshard_num_shards = 3;
  opt.reshard_protocols = {"fast_swmr"};
  opt.puts_per_writer = 100;
  opt.gets_per_reader = 100;
  const auto rep = run_tcp_stress(opt);
  ASSERT_TRUE(rep.ok()) << rep.describe();
  const auto merged = merged_timeline();
  ASSERT_FALSE(merged.empty());
  EXPECT_EQ(obs::validate_timeline(merged), "");
  // Reactor threads share one steady clock: everything is ns-domain.
  std::size_t data_recvs = 0;
  for (const auto& e : merged) {
    EXPECT_FALSE(e.sim_domain) << e.node;
    // Every client-issued data frame a server receives must carry the
    // op's trace -- across the reshard too.
    if (e.ev == "recv" && (e.type == "READ" || e.type == "WRITE" ||
                           e.type == "QUERY" || e.type == "WB")) {
      ++data_recvs;
      EXPECT_NE(e.trace, 0u) << "untraced " << e.type << " at " << e.node;
    }
  }
  EXPECT_GT(data_recvs, 0u);
  expect_every_send_traced(merged);
  // Parks are timing-dependent over real sockets; when one happened,
  // hold it to the same trace/span contract as the sim (seed-install
  // ordering included -- dumps are taken after the run quiesces).
  check_park_resume(merged, /*expect_seed=*/true);
}

TEST(RecorderReshard, SimLazyFetchCarriesTheFencedOpsTrace) {
  // The schedule of SimReconfig.LazySeedFetchHealsServerThatMissedTheSeed:
  // server 0 misses every seed_req, so the first read after the reshard
  // fences at server 0 and starts a lazy fetch. Each fetch_req must
  // carry the trace of an op server 0 fenced on that object.
  recording_guard guard(true);
  obs::recorder_reset_all();
  store::store_config cfg;
  cfg.base.servers = 7;
  cfg.base.t_failures = 1;
  cfg.base.readers = 2;
  cfg.num_shards = 1;
  cfg.shard_protocols = {"abd"};
  store::sim_store s(cfg);
  rng r(96);
  store::test::sim_clients clients(s, r);
  const auto run_until_idle = [&] {
    for (std::uint64_t steps = 0; !s.idle(); ++steps) {
      ASSERT_LT(steps, 1'000'000u);
      s.run_random(r, 1);
    }
  };
  clients.put(0, "k", "v1");
  run_until_idle();

  reconfig::coordinator coord(s, {"k"});
  ASSERT_TRUE(coord.start(reconfig::reconfig_plan{1, {"fast_swmr"}}))
      << coord.error();
  for (std::uint64_t steps = 0; !coord.done(); ++steps) {
    ASSERT_LT(steps, 1'000'000u);
    coord.step();
    s.world().drop_matching([](const sim::envelope& e) {
      return e.msg().type == msg_type::seed_req && e.to == server_id(0);
    });
    if (!s.world().in_transit().empty()) s.run_random(r, 1);
  }
  ASSERT_EQ(s.server_at(0).seeded_count(), 0u);
  clients.get(0, "k");
  run_until_idle();
  ASSERT_EQ(s.server_at(0).seeded_count(), 1u);  // healed via the fetch

  const auto merged = merged_timeline();
  EXPECT_EQ(obs::validate_timeline(merged), "");
  expect_every_send_traced(merged);
  std::set<std::tuple<std::string, std::uint64_t, std::uint64_t>> fenced;
  for (const auto& e : merged) {
    if (e.ev == "fence") fenced.emplace(e.node, e.obj, e.trace);
  }
  const std::string fetch = to_string(msg_type::fetch_req);
  std::size_t fetches = 0;
  for (const auto& e : merged) {
    if (e.ev != "send" || e.type != fetch) continue;
    ++fetches;
    EXPECT_TRUE(fenced.contains({e.node, e.obj, e.trace}))
        << e.node << " sent " << fetch << " under trace 0x" << std::hex
        << e.trace << ", which it never fenced on object " << e.obj;
  }
  EXPECT_GT(fetches, 0u);
}

// ----------------------------------------- reactor-thread hooks (TSan) --

TEST(RecorderConcurrency, ReactorHooksRaceFreeUnderConcurrentScrape) {
  recording_guard guard(true);
  obs::recorder_reset_all();
  store::store_config cfg;
  cfg.base.servers = 5;
  cfg.base.t_failures = 1;
  cfg.base.readers = 2;
  cfg.base.writers = 1;
  cfg.num_shards = 2;
  cfg.shard_protocols = {"fast_swmr", "abd"};
  store::tcp_store ts(cfg);
  ts.start();
  std::thread writer([&] {
    for (int n = 1; n <= 10; ++n) {
      ASSERT_TRUE(store::test::put_one(ts.frontend(), 0,
                                       "k" + std::to_string(n % 3),
                                       "v" + std::to_string(n)));
    }
  });
  std::vector<std::thread> readers;
  for (std::uint32_t i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      for (int n = 0; n < 8; ++n) {
        (void)store::test::get_one(ts.frontend(), i,
                                   "k" + std::to_string(n % 3));
      }
    });
  }
  // Snapshot, render and dump while the reactor threads record and
  // count. A dump taken mid-traffic skips torn slots, so it still
  // parses.
  for (int i = 0; i < 10; ++i) {
    (void)obs::snapshot();
    (void)obs::render_text();
    for (const auto& [node, dump] : obs::recorder_dump_all()) {
      EXPECT_EQ(obs::validate_recorder_dump(dump), "") << node;
    }
  }
  EXPECT_EQ(obs::validate_dump(obs::render_text()), "");
  writer.join();
  for (auto& th : readers) th.join();
  const auto dumps = obs::recorder_dump_all();
  EXPECT_FALSE(dumps.empty());
  for (const auto& [node, dump] : dumps) {
    EXPECT_FALSE(dump.empty()) << node;
    EXPECT_EQ(obs::validate_recorder_dump(dump), "") << node;
  }
  ts.stop();
}

// ----------------------------------------------------------- forensics --

TEST(RecorderForensics, BrokenMwmrFailureLeavesMergeableDumps) {
  // The red path end to end: the naive one-round MWMR strawman fails
  // the checker; the harness must drop one pre-filtered recorder dump
  // per node, and the dumps must merge into a causally-valid timeline
  // showing both violating ops' round structure.
  recording_guard guard(true);
  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 20 && !caught; ++seed) {
    stress_options opt;
    opt.protocol = "naive_fast_mwmr";
    opt.S = 4;
    opt.t = 1;
    opt.R = 2;
    opt.W = 2;
    opt.num_shards = 1;
    opt.num_keys = 1;
    opt.puts_per_writer = 60;
    opt.gets_per_reader = 60;
    opt.seed = seed;
    opt.label = "rec_meta_naive_mwmr";
    const auto rep = run_sim_stress(opt);
    if (rep.check.ok) continue;
    caught = true;
    ASSERT_FALSE(rep.recorder_paths.empty())
        << "failure with recording on produced no recorder dumps";
    EXPECT_NE(rep.describe().find("trace_merge"), std::string::npos)
        << rep.describe();
    std::vector<std::vector<obs::timeline_event>> per_node;
    for (const auto& path : rep.recorder_paths) {
      std::ifstream in(path);
      ASSERT_TRUE(in.good()) << path;
      std::stringstream ss;
      ss << in.rdbuf();
      const auto text = ss.str();
      ASSERT_EQ(obs::validate_recorder_dump(text), "") << path;
      per_node.push_back(obs::parse_recorder_dump(text));
    }
    const auto merged = obs::merge_events(std::move(per_node));
    ASSERT_FALSE(merged.empty());
    EXPECT_EQ(obs::validate_timeline(merged), "");
    // Both ops' rounds made it in: reads and writes, sent and served.
    const auto count = [&](const char* ev, const char* type) {
      return std::count_if(merged.begin(), merged.end(),
                           [&](const obs::timeline_event& e) {
                             return e.ev == ev && e.type == type;
                           });
    };
    EXPECT_GT(count("send", "READ"), 0);
    EXPECT_GT(count("recv", "READ"), 0);
    EXPECT_GT(count("send", "WRITE"), 0);
    EXPECT_GT(count("recv", "WRITE"), 0);
    // Dumps are pre-filtered to the violating object.
    const auto obj = merged.front().obj;
    for (const auto& e : merged) EXPECT_EQ(e.obj, obj);
    // The narrative and the catapult export both accept the merge.
    EXPECT_FALSE(obs::render_narrative(merged).empty());
    EXPECT_EQ(obs::validate_catapult(obs::render_catapult(merged)), "");
    // The error names its ops by the trace ids their clients minted:
    // each op's rounds are in the dumps, and the history dump lists the
    // id and carries its narrative.
    ASSERT_FALSE(rep.check.traces.empty()) << rep.check.error;
    std::ifstream in(rep.dump_path);
    std::stringstream dumped;
    dumped << in.rdbuf();
    const std::string history = dumped.str();
    const auto at = history.find("\n# traces:");
    ASSERT_NE(at, std::string::npos) << history;
    const std::string header =
        history.substr(at + 1, history.find('\n', at + 1) - at - 1) + " ";
    for (const auto trace : rep.check.traces) {
      const auto seen = [&](const char* ev) {
        return std::ranges::any_of(merged, [&](const obs::timeline_event& e) {
          return e.trace == trace && e.ev == ev;
        });
      };
      EXPECT_TRUE(seen("send")) << trace;
      EXPECT_TRUE(seen("recv")) << trace;
      EXPECT_TRUE(seen("serve")) << trace;
      std::ostringstream hex;
      hex << "0x" << std::hex << trace;
      EXPECT_NE(rep.describe().find(hex.str()), std::string::npos)
          << rep.describe();
      EXPECT_NE(header.find(" " + hex.str() + " "), std::string::npos)
          << header;
      EXPECT_NE(history.find("\ntrace " + hex.str() + " obj="),
                std::string::npos)
          << history;
    }
    // The failure was deliberate: leave no dumps behind for CI's failure
    // upload to mistake for a real one.
    std::filesystem::remove(rep.dump_path);
    for (const auto& path : rep.recorder_paths) std::filesystem::remove(path);
  }
  EXPECT_TRUE(caught)
      << "the non-linearizable strawman survived 20 seeds of stress";
}

}  // namespace
}  // namespace fastreg
