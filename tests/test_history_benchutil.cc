// Tests of the bench utilities: history bookkeeping, the stats/table
// helpers, the stress harness's environment knobs, the measured-workload
// driver that powers every experiment binary, and the one TCP load
// driver with its op-log latency reader.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <tuple>

#include "benchutil/sim_driver.h"
#include "benchutil/stats.h"
#include "benchutil/stress.h"
#include "benchutil/table.h"
#include "benchutil/tcp_driver.h"
#include "benchutil/workload.h"
#include "checker/atomicity.h"
#include "checker/history.h"
#include "registers/registry.h"
#include "store/tcp_store.h"
#include "sim_test_util.h"

namespace fastreg {
namespace {

using checker::history;
using test::make_cfg;

TEST(History, RecordsAndCompletesOps) {
  history h;
  const auto w = h.begin_op(writer_id(0), true, 10, "val");
  EXPECT_EQ(h.size(), 1u);
  EXPECT_FALSE(h.op(w).response_time.has_value());
  h.complete_write(w, 20, 1);
  EXPECT_EQ(*h.op(w).response_time, 20u);

  const auto r = h.begin_op(reader_id(0), false, 30);
  h.complete_read(r, 40, 1, 0, "val", 1);
  EXPECT_EQ(h.op(r).val, "val");
  EXPECT_EQ(h.op(r).ts, 1);
}

TEST(History, FiltersByKind) {
  history h;
  const auto w1 = h.begin_op(writer_id(0), true, 1, "a");
  h.complete_write(w1, 2, 1);
  h.begin_op(writer_id(0), true, 3, "b");  // incomplete
  const auto r1 = h.begin_op(reader_id(0), false, 4);
  h.complete_read(r1, 5, 1, 0, "a", 1);
  h.begin_op(reader_id(1), false, 6);  // incomplete read

  EXPECT_EQ(h.all_writes().size(), 2u);
  EXPECT_EQ(h.writes_by(writer_id(0)).size(), 1u);  // only completed
  EXPECT_EQ(h.completed_reads().size(), 1u);
}

TEST(History, DumpMentionsEveryOp) {
  history h;
  const auto w1 = h.begin_op(writer_id(0), true, 1, "a");
  h.complete_write(w1, 2, 1);
  const auto dump = h.dump();
  EXPECT_NE(dump.find("write"), std::string::npos);
  EXPECT_NE(dump.find("\"a\""), std::string::npos);
}

TEST(HistoryDeath, DoubleInvokeSameClientAborts) {
  history h;
  h.begin_op(reader_id(0), false, 1);
  EXPECT_DEATH(h.begin_op(reader_id(0), false, 2), "precondition");
}

// ------------------------------------------------------------------ stats

TEST(Stats, MeanMinMax) {
  benchutil::stats s;
  for (double v : {3.0, 1.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(Stats, PercentilesInterpolate) {
  benchutil::stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.p50(), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(0), 1.0, 0.01);
  EXPECT_NEAR(s.percentile(100), 100.0, 0.01);
  EXPECT_GT(s.p99(), 98.0);
}

TEST(Stats, EmptyIsZeroNotCrash) {
  benchutil::stats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
}

TEST(Stats, AddAfterQueryStillSorted) {
  benchutil::stats s;
  s.add(5);
  EXPECT_DOUBLE_EQ(s.p50(), 5.0);
  s.add(1);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(Fmt, Precision) {
  EXPECT_EQ(benchutil::fmt(1.2345, 2), "1.23");
  EXPECT_EQ(benchutil::fmt(7.0, 0), "7");
}

TEST(StatsDeath, PercentileOutsideDomainAborts) {
  benchutil::stats s;
  s.add(1.0);
  EXPECT_DEATH((void)s.percentile(-1), "precondition");
  EXPECT_DEATH((void)s.percentile(100.5), "precondition");
}

TEST(Stats, SingleSampleDegeneratePercentiles) {
  benchutil::stats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.p50(), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 42.0);
}

// -------------------------------------------------------------- delays

TEST(UniformDelay, ConstantWhenLoEqualsHi) {
  sim::uniform_delay d(100, 100);
  rng r(1);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(d.sample(r, writer_id(0), server_id(0)), 100u);
  }
}

TEST(UniformDelayDeath, InvertedRangeAborts) {
  // lo > hi would wrap hi - lo + 1 and sample near-uint64 delays.
  EXPECT_DEATH(sim::uniform_delay(5, 2), "precondition");
}

// ------------------------------------------------------------------ table

TEST(Table, AlignsColumns) {
  benchutil::table t({"a", "long_header"});
  t.add_row({"xxxxx", "1"});
  const auto s = t.render();
  // Header line and rule line have equal length; the row is padded.
  const auto nl1 = s.find('\n');
  const auto nl2 = s.find('\n', nl1 + 1);
  EXPECT_EQ(nl1, nl2 - nl1 - 1);
  EXPECT_NE(s.find("xxxxx"), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  benchutil::table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NO_THROW(t.render());
}

// --------------------------------------------------------------- workload

TEST(Workload, SequentialLatencyMatchesDelayModel) {
  system_config cfg = make_cfg(5, 1, 1);
  benchutil::workload_options opt;
  opt.num_writes = 10;
  opt.reads_per_reader = 10;
  opt.delay_lo = 100;
  opt.delay_hi = 100;  // constant
  const auto rep =
      benchutil::run_measured(*make_protocol("fast_swmr"), cfg, opt);
  EXPECT_TRUE(rep.all_complete);
  // One RTT at constant 100 per hop = 200 ticks (+1 bookkeeping step max).
  EXPECT_NEAR(rep.read_latency.p50(), 200.0, 8.0);
  EXPECT_NEAR(rep.write_latency.p50(), 200.0, 8.0);
  EXPECT_DOUBLE_EQ(rep.read_rounds.mean(), 1.0);
}

TEST(Workload, AbdReadsTakeTwoRtt) {
  system_config cfg = make_cfg(5, 2, 1);
  benchutil::workload_options opt;
  opt.num_writes = 5;
  opt.reads_per_reader = 5;
  opt.delay_lo = 100;
  opt.delay_hi = 100;
  const auto rep = benchutil::run_measured(*make_protocol("abd"), cfg, opt);
  EXPECT_NEAR(rep.read_latency.p50(), 400.0, 12.0);
  EXPECT_DOUBLE_EQ(rep.read_rounds.mean(), 2.0);
}

TEST(Workload, ConcurrentModeCompletesEverything) {
  system_config cfg = make_cfg(9, 2, 3);
  benchutil::workload_options opt;
  opt.num_writes = 10;
  opt.reads_per_reader = 10;
  opt.concurrent = true;
  const auto rep =
      benchutil::run_measured(*make_protocol("fast_swmr"), cfg, opt);
  EXPECT_TRUE(rep.all_complete);
  EXPECT_EQ(rep.hist.size(), 10u + 3u * 10u);
  EXPECT_TRUE(checker::check_swmr_atomicity(rep.hist).ok);
}

TEST(Workload, CrashServersStillCompletes) {
  system_config cfg = make_cfg(9, 2, 2);
  benchutil::workload_options opt;
  opt.num_writes = 8;
  opt.reads_per_reader = 8;
  opt.concurrent = true;
  opt.crash_servers = 2;
  const auto rep =
      benchutil::run_measured(*make_protocol("fast_swmr"), cfg, opt);
  EXPECT_TRUE(rep.all_complete);
  EXPECT_TRUE(checker::check_swmr_atomicity(rep.hist).ok);
}

TEST(Workload, MidwayTornCrashStaysAtomic) {
  system_config cfg = make_cfg(9, 2, 2);
  benchutil::workload_options opt;
  opt.num_writes = 8;
  opt.reads_per_reader = 8;
  opt.concurrent = true;
  opt.crash_servers = 2;
  opt.crash_midway = true;
  const auto rep =
      benchutil::run_measured(*make_protocol("fast_swmr"), cfg, opt);
  EXPECT_TRUE(rep.all_complete);
  EXPECT_TRUE(checker::check_swmr_atomicity(rep.hist).ok);
}

TEST(Workload, MessageComplexityScalesWithS) {
  benchutil::workload_options opt;
  opt.num_writes = 5;
  opt.reads_per_reader = 5;
  const auto small =
      benchutil::run_measured(*make_protocol("fast_swmr"),
                              make_cfg(4, 1, 1), opt);
  const auto large =
      benchutil::run_measured(*make_protocol("fast_swmr"),
                              make_cfg(16, 1, 1), opt);
  // 2S messages per op (S requests + S replies when none crash).
  EXPECT_NEAR(small.msgs_per_op, 8.0, 0.5);
  EXPECT_NEAR(large.msgs_per_op, 32.0, 0.5);
}

// ------------------------------------------------------- stress env --

TEST(StressEnv, SeedAndItersFromEnvAreParsedStrictly) {
  const char* prev_seed = std::getenv("FASTREG_STRESS_SEED");
  const char* prev_iters = std::getenv("FASTREG_STRESS_ITERS");
  const std::string saved_seed = prev_seed != nullptr ? prev_seed : "";
  const std::string saved_iters = prev_iters != nullptr ? prev_iters : "";
  // Each call returns its value and whatever it warned on stderr.
  const auto seed_for = [](const char* value, std::string* warning) {
    setenv("FASTREG_STRESS_SEED", value, 1);
    testing::internal::CaptureStderr();
    const auto seed = benchutil::stress_seed_from_env();
    *warning = testing::internal::GetCapturedStderr();
    return seed;
  };
  const auto iters_for = [](const char* value, std::string* warning) {
    setenv("FASTREG_STRESS_ITERS", value, 1);
    testing::internal::CaptureStderr();
    const auto iters = benchutil::stress_iters(10);
    *warning = testing::internal::GetCapturedStderr();
    return iters;
  };
  std::string warning;
  EXPECT_EQ(seed_for("42", &warning), 42u);
  EXPECT_EQ(warning, "");
  EXPECT_EQ(seed_for("0x1f", &warning), 31u);
  EXPECT_EQ(warning, "");
  // Garbage falls back to a fresh random seed, not to what a prefix
  // parse reads, and always says so.
  struct bad_seed {
    const char* value;
    std::uint64_t prefix_parse;
  };
  for (const auto& [bad, prefix] :
       {bad_seed{"0x1g", 1}, bad_seed{"abc", 0}, bad_seed{"-1", ~0ull},
        bad_seed{" 7", 7}, bad_seed{"99999999999999999999", ~0ull}}) {
    EXPECT_NE(seed_for(bad, &warning), prefix) << bad;
    EXPECT_NE(warning.find("ignoring malformed FASTREG_STRESS_SEED"),
              std::string::npos)
        << bad;
  }

  EXPECT_EQ(iters_for("3", &warning), 30u);
  EXPECT_EQ(warning, "");
  EXPECT_EQ(iters_for("0x2", &warning), 20u);
  for (const char* bad : {"0", "3x", "-2", ""}) {
    EXPECT_EQ(iters_for(bad, &warning), 10u) << "keeps the default: " << bad;
    EXPECT_EQ(warning.find("FASTREG_STRESS_ITERS") != std::string::npos,
              *bad != '\0')
        << "an empty value is unset, anything else malformed: " << bad;
  }
  EXPECT_EQ(iters_for("99999999999999", &warning), 0xffffffffu)
      << "a huge multiplier saturates instead of wrapping";

  for (const auto& [name, prev, saved] :
       {std::tuple{"FASTREG_STRESS_SEED", prev_seed, saved_seed},
        std::tuple{"FASTREG_STRESS_ITERS", prev_iters, saved_iters}}) {
    if (prev != nullptr) {
      setenv(name, saved.c_str(), 1);
    } else {
      unsetenv(name);
    }
  }
}

// ------------------------------------------------------------- zipf --

TEST(Zipf, ExactDistributionMatchesPowerLaw) {
  const benchutil::zipf_sampler z(100, 1.0);
  double total = 0;
  for (std::uint32_t k = 0; k < 100; ++k) total += z.probability(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
  // P(rank 0) / P(rank 9) = 10^s for s = 1.
  EXPECT_NEAR(z.probability(0) / z.probability(9), 10.0, 1e-6);
  // P(rank 0) = 1 / H_100 ~= 0.1928.
  EXPECT_NEAR(z.probability(0), 0.1928, 1e-3);
}

TEST(Zipf, EmpiricalSkewTracksExactDistribution) {
  const std::uint32_t n = 64;
  const benchutil::zipf_sampler z(n, 0.99);
  rng r(77);
  std::vector<std::uint64_t> counts(n, 0);
  const std::uint64_t samples = 200'000;
  for (std::uint64_t i = 0; i < samples; ++i) counts[z.sample(r)]++;
  // Hot head: each of the top ranks lands within 5% of its exact mass.
  for (std::uint32_t k = 0; k < 8; ++k) {
    const double expected = z.probability(k) * static_cast<double>(samples);
    EXPECT_NEAR(static_cast<double>(counts[k]), expected, expected * 0.05)
        << "rank " << k;
  }
  // And the skew is real: rank 0 draws an order of magnitude more than
  // the median rank.
  EXPECT_GT(counts[0], 10 * counts[n / 2]);
}

TEST(Zipf, DistinctSamplesStayInRangeAndHotKeyHeavy) {
  const std::uint32_t n = 16;
  const benchutil::zipf_sampler z(n, 1.2);
  rng r(5);
  std::uint32_t key0_hits = 0;
  const int draws = 400;
  for (int i = 0; i < draws; ++i) {
    const auto keys = benchutil::sample_distinct_keys_zipf(r, z, 4);
    ASSERT_EQ(keys.size(), 4u);
    std::set<std::string> uniq(keys.begin(), keys.end());
    EXPECT_EQ(uniq.size(), 4u);  // distinct within a batch
    for (const auto& k : keys) {
      ASSERT_EQ(k.substr(0, 3), "key");
      const int rank = std::stoi(k.substr(3));
      ASSERT_GE(rank, 0);
      ASSERT_LT(rank, static_cast<int>(n));
      key0_hits += k == "key0" ? 1 : 0;
    }
  }
  // With s=1.2 over 16 keys, key0 carries ~37% of single-draw mass, so a
  // 4-distinct batch nearly always contains it.
  EXPECT_GT(key0_hits, draws * 3 / 4);
}

TEST(StoreWorkload, ZipfClosedLoopCompletesAndLinearizes) {
  store::store_config cfg;
  cfg.base.servers = 7;
  cfg.base.t_failures = 1;
  cfg.base.readers = 2;
  cfg.base.writers = 1;
  cfg.num_shards = 4;
  cfg.shard_protocols = {"fast_swmr", "abd"};
  benchutil::store_workload_options opt;
  opt.num_keys = 16;
  opt.gets_per_reader = 32;
  opt.puts_per_writer = 16;
  opt.batch = 4;
  opt.dist = benchutil::key_dist::zipf;
  opt.zipf_s = 1.1;
  const auto rep = benchutil::run_store_measured(cfg, opt);
  EXPECT_TRUE(rep.hist.all_complete());
  EXPECT_TRUE(rep.hist.verify().ok);
  // The skew concentrates traffic: the hottest key sees far more ops
  // than the coldest (uniform would spread 80 ops over 16 keys evenly).
  std::size_t hottest = 0, total = 0;
  for (const auto& [key, h] : rep.hist.all()) {
    hottest = std::max(hottest, h.size());
    total += h.size();
  }
  EXPECT_EQ(total, 2u * 32u + 16u);
  EXPECT_GT(hottest, total / 8);
}

// ------------------------------------------------------ seeded sim runs

/// FNV-1a over every key name and its history dump (client, ts, value,
/// invoke and response times, rounds): equal digests, equal runs.
std::uint64_t history_digest(const store::store_histories& hist) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [key, kh] : hist.all()) {
    mix(key);
    mix(kh.dump());
  }
  return h;
}

// The constants were measured before the seeded simulator loops moved
// onto one driver (benchutil/sim_driver.h); they pin that every seeded
// history, E12a row and stress run stayed byte-identical. Two processes
// give the same digests.
TEST(SimDriver, SeededHistoriesAreUnchanged) {
  // E12a's row at 64 keys over 4 fast_swmr+abd shards, then the same load
  // with Zipf keys.
  store::store_config cfg;
  cfg.base.servers = 7;
  cfg.base.t_failures = 1;
  cfg.base.readers = 3;
  cfg.base.writers = 1;
  cfg.num_shards = 4;
  cfg.shard_protocols = {"fast_swmr", "abd"};
  benchutil::store_workload_options wopt;
  wopt.num_keys = 64;
  wopt.gets_per_reader = 240;
  wopt.puts_per_writer = 80;
  wopt.batch = 8;
  wopt.seed = 42 + 64 + 4;
  EXPECT_EQ(history_digest(benchutil::run_store_measured(cfg, wopt).hist),
            0x5b7477836f568d84ull);
  wopt.dist = benchutil::key_dist::zipf;
  EXPECT_EQ(history_digest(benchutil::run_store_measured(cfg, wopt).hist),
            0x30a0e0a72ac81832ull);

  const auto stress = [](benchutil::stress_options opt) {
    const auto rep = benchutil::run_sim_stress(opt);
    EXPECT_TRUE(rep.ok()) << opt.label << ": " << rep.describe();
    return history_digest(rep.hist);
  };
  benchutil::stress_options base;
  base.num_shards = 2;
  base.num_keys = 3;
  base.puts_per_writer = 60;
  base.gets_per_reader = 60;
  base.seed = 11;

  // Timed schedule: a server crashes at a third and restarts from its
  // snapshot + op log at two thirds.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fastreg_pin_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto crash = base;
  crash.label = "pin_crash";
  crash.timed = true;
  crash.crash_servers = 1;
  crash.restart_crashed = true;
  crash.persist_dir = dir.string();
  EXPECT_EQ(stress(crash), 0x700133e5d4ddfdecull);
  std::filesystem::remove_all(dir);

  // Timed schedule with t = 2: one server isolated and another crashed at
  // a third, healed and restarted from its snapshot + op log at two
  // thirds. Within a trigger the order of the faults must not show in
  // the history: the digest was taken from a build of the commit before
  // the stress schedule moved onto store::deployment's faults, which
  // fired crash before isolate and restart before heal.
  std::filesystem::create_directories(dir);
  auto both = base;
  both.label = "pin_crash_partition";
  both.timed = true;
  both.t = 2;
  both.crash_servers = 1;
  both.partition_servers = 1;
  both.restart_crashed = true;
  both.persist_dir = dir.string();
  EXPECT_EQ(stress(both), 0xd1aa813e312de648ull);
  std::filesystem::remove_all(dir);

  // Random schedule: a minority partition, healed at two thirds.
  auto part = base;
  part.label = "pin_partition";
  part.partition_servers = 1;
  EXPECT_EQ(stress(part), 0x915f91444872dc81ull);

  // A live reshard from abd to fast_swmr+abd at a third.
  auto reshard = base;
  reshard.label = "pin_reshard";
  reshard.protocol = "abd";
  reshard.W = 1;
  reshard.reshard = true;
  reshard.reshard_num_shards = 3;
  reshard.reshard_protocols = {"fast_swmr", "abd"};
  EXPECT_EQ(stress(reshard), 0xce322d9507c31350ull);
}

TEST(SimDriver, ControlKeepsADrainedRunAlive) {
  // One abd shard on S = 5 servers.
  store::store_config cfg;
  cfg.base.servers = 5;
  cfg.base.t_failures = 1;
  cfg.base.readers = 1;
  cfg.base.writers = 1;
  cfg.shard_protocols = {"abd"};

  // Nothing in transit and no quota: a control that has work for five
  // rounds keeps the loop for five rounds and ends it in the sixth.
  {
    store::sim_store s(cfg);
    rng r(1);
    int rounds = 0;
    benchutil::drive_sim(
        s, r, {{reader_id(0), 1, 0, {}}}, /*delays=*/nullptr,
        [&](std::uint64_t invoked) {
          EXPECT_EQ(invoked, 0u);
          return ++rounds <= 5;
        });
    EXPECT_EQ(rounds, 6);
  }

  // A depth-4 reader with a quota of 6 issues 4 ops, then 2, each batch
  // in one invocation step. The reader is cut off from every server as a
  // batch is drawn, so its envelopes stay in transit, the schedule takes
  // no step, and the next round's control sees only that step's sends.
  store::sim_store s(cfg);
  rng r(1);
  auto& w = s.world();
  const auto cut = [&](bool block) {
    for (std::uint32_t k = 0; k < cfg.base.S(); ++k) {
      if (block) {
        w.partition(reader_id(0), server_id(k));
      } else {
        w.heal(reader_id(0), server_id(k));
      }
    }
  };
  std::vector<std::uint32_t> batches;
  std::vector<std::uint64_t> envelopes;
  std::uint64_t sent_before = 0;
  const auto next = [&](std::uint32_t k) {
    batches.push_back(k);
    cut(true);
    sent_before = w.envelopes_sent();
    std::vector<store::store_op> ops;
    for (std::uint32_t i = 0; i < k; ++i) {
      ops.push_back({"k" + std::to_string(i), /*is_put=*/false, {}});
    }
    return ops;
  };
  benchutil::drive_sim(s, r, {{reader_id(0), 4, 6, next}}, nullptr,
                       [&](std::uint64_t) {
                         if (batches.size() > envelopes.size()) {
                           envelopes.push_back(w.envelopes_sent() -
                                               sent_before);
                           cut(false);
                         }
                         return false;
                       });
  EXPECT_EQ(batches, (std::vector<std::uint32_t>{4, 2}));
  ASSERT_EQ(envelopes.size(), 2u);
  for (const auto n : envelopes) {
    EXPECT_GT(n, 0u);
    EXPECT_LE(n, cfg.base.S()) << "one envelope per server per batch";
  }
  EXPECT_EQ(s.histories().total_ops(), 6u);
  EXPECT_TRUE(s.histories().all_complete());
}


// ------------------------------------------------------------ TCP driver

/// A one-shard abd store with one writer and three readers.
store::store_config drive_cfg() {
  store::store_config cfg;
  cfg.base.servers = 5;
  cfg.base.t_failures = 1;
  cfg.base.readers = 3;
  cfg.base.writers = 1;
  cfg.shard_protocols = {"abd"};
  return cfg;
}

/// Four scripts of `n` ops over keys k0..k3 at depths 2, 1, 3 and 4: on
/// three driver threads, thread 0 polls the writer and reader 2, while
/// readers 0 and 1 each own a thread.
std::vector<benchutil::client_script> drive_scripts(std::uint32_t n) {
  std::vector<benchutil::client_script> scripts;
  benchutil::client_script w{writer_id(0), 2, {}};
  for (std::uint32_t k = 0; k < n; ++k) {
    w.ops.push_back(store::store_op{"k" + std::to_string(k % 4), true,
                                    "v" + std::to_string(k + 1)});
  }
  scripts.push_back(std::move(w));
  const std::uint32_t depths[3] = {1, 3, 4};
  for (std::uint32_t i = 0; i < 3; ++i) {
    benchutil::client_script r{reader_id(i), depths[i], {}};
    for (std::uint32_t k = 0; k < n; ++k) {
      r.ops.push_back(
          store::store_op{"k" + std::to_string((k + i) % 4), false, {}});
    }
    scripts.push_back(std::move(r));
  }
  return scripts;
}

TEST(Drive, FewerThreadsThanScriptsCompleteEveryOpAndVerify) {
  store::tcp_store ts(drive_cfg());
  ts.start();
  const std::uint32_t n = 40;
  benchutil::tcp_driver drv(ts, drive_scripts(n), /*threads=*/3);
  EXPECT_EQ(drv.join(), 0u);
  EXPECT_EQ(drv.submitted(), 4u * n);
  const auto hist = ts.gather();
  const auto ops = benchutil::ops_since(hist, drv.start_ns());
  EXPECT_EQ(ops.puts.size(), n);
  EXPECT_EQ(ops.gets.size(), 3u * n);
  EXPECT_TRUE(hist.all_complete());
  const auto res = hist.verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(Drive, StoppedDeploymentFailsEveryOpWithoutWaitingOutTheDeadline) {
  store::tcp_store ts(drive_cfg());
  ts.start();
  ts.stop();
  const std::uint32_t n = 25;
  const auto t0 = std::chrono::steady_clock::now();
  benchutil::tcp_driver drv(ts, drive_scripts(n), /*threads=*/3);
  EXPECT_EQ(drv.join(), 4u * n);
  EXPECT_EQ(drv.submitted(), 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  EXPECT_EQ(ts.gather().total_ops(), 0u);
}

TEST(Drive, OpsSinceDropsEarlierOpsAndSplitsGetsFromPuts) {
  store::store_histories hist;
  auto& a = hist.for_key("a");
  a.complete_write(a.begin_op(writer_id(0), true, 5, "x"), 8, 1);  // early
  a.complete_write(a.begin_op(writer_id(0), true, 10, "y"), 30'000, 2);
  auto& b = hist.for_key("b");
  b.complete_read(b.begin_op(reader_id(0), false, 3), 9, 0, 0, "", 1);
  b.complete_read(b.begin_op(reader_id(0), false, 12), 2'012, 0, 0, "", 1);
  (void)b.begin_op(reader_id(1), false, 15);  // never completes
  const auto ops = benchutil::ops_since(hist, 10);
  ASSERT_EQ(ops.puts.size(), 1u);
  ASSERT_EQ(ops.gets.size(), 1u);
  EXPECT_EQ(ops.completed(), 2u);
  EXPECT_EQ(ops.incomplete, 1u);
  EXPECT_EQ(ops.puts[0].invoke, 10u);
  EXPECT_EQ(ops.puts[0].latency(), 29'990u);
  EXPECT_EQ(ops.gets[0].latency(), 2'000u);
  EXPECT_DOUBLE_EQ(benchutil::latencies(ops.gets, 1000).p50(), 2.0);
  EXPECT_DOUBLE_EQ(benchutil::latencies(ops.puts).p50(), 29'990.0);
  EXPECT_EQ(benchutil::ops_since(hist, 0).completed(), 4u);
  EXPECT_EQ(benchutil::ops_since(hist, 16).incomplete, 0u);
}

}  // namespace
}  // namespace fastreg
