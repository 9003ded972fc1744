// E13 -- live resharding: throughput and tail latency THROUGH an online
// reconfiguration (shard count change + per-shard protocol switch), on
// both transports, with per-key atomicity verified across the epoch
// boundary.
//
// Part 1 (timed simulator): a Zipf hot-key closed loop runs while the
// coordinator reshards 4 shards of abd into 6 shards of fast_swmr+abd --
// the "promote the hot keys to one-round reads" move the ROADMAP asks
// for. Ops are classified before/during/after by their position relative
// to the reconfiguration window; the drop during the drain and the
// latency win after it are the headline numbers.
//
// Part 2 (timed simulator, crashed): the same workload and reshard, but
// one server is killed the moment the reconfiguration starts and stays
// dead. Quorum seeding + the servers' lazy seed fetch keep the migration
// (and every op parked or held behind a drain) live -- the pre-PR-3
// full-fleet seed deadlocked here. The before/during/after percentiles
// put numbers behind that liveness claim.
//
// Part 3 (localhost TCP): same reshard on real sockets, through the one
// TCP load driver; latencies are the op log's, in microseconds.
//
// Part 4 (timed simulator, durable): a server with per-server durability
// (src/persist) is killed mid-load, the fleet reshards WITHOUT it, and it
// restarts afterwards. Its on-disk state carries the old epoch, so the
// rejoin is epoch-FENCED: the state (and its disk backing) is discarded
// and the server re-bootstraps through the lazy seed-fetch path. One row
// per fsync policy puts a number on that worst-case recovery (replay +
// discard) next to E9's happy-path replay.
//
// The simulator parts run on the one simulator load driver
// (benchutil/sim_driver.h), the coordinator's steps as its per-round
// control.
//
// Every history is checked per key. The binary exits 1 (with `E13 FAILED:`
// lines on stderr) unless every "violations" and "failed" cell is 0.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "benchutil/sim_driver.h"
#include "benchutil/stats.h"
#include "benchutil/table.h"
#include "benchutil/tcp_driver.h"
#include "benchutil/workload.h"
#include "common/clock.h"
#include "common/rng.h"
#include "persist/durable.h"
#include "reconfig/coordinator.h"
#include "store/sim_store.h"
#include "store/tcp_store.h"

using namespace fastreg;
using namespace fastreg::benchutil;

namespace {

std::vector<std::string> make_keys(std::uint32_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    keys.push_back("key" + std::to_string(i));
  }
  return keys;
}

/// A depth-1 writer putting v1, v2, ... and `readers` readers getting,
/// `quota` ops each, on keys `r` draws from `zipf` as the ops are issued.
std::vector<sim_client> zipf_clients(const std::vector<std::string>& keys,
                                     const zipf_sampler& zipf, rng& r,
                                     std::uint32_t readers,
                                     std::uint32_t quota) {
  std::vector<sim_client> clients{
      {writer_id(0), 1, quota,
       [&keys, &zipf, &r, seq = 0u](std::uint32_t) mutable {
         return std::vector<store::store_op>{{keys[zipf.sample(r)],
                                              /*is_put=*/true,
                                              "v" + std::to_string(++seq)}};
       }}};
  for (std::uint32_t i = 0; i < readers; ++i) {
    clients.push_back({reader_id(i), 1, quota,
                       [&keys, &zipf, &r](std::uint32_t) {
                         return std::vector<store::store_op>{
                             {keys[zipf.sample(r)], false, {}}};
                       }});
  }
  return clients;
}

/// Rows with a violation or a failed op; main() exits 1 when any exist.
int g_bad_rows = 0;

/// Adds a part's before/during/after rows. bounds = {run start, reshard
/// start, reshard done, run end} in the op log's clock (ticks or ns). An
/// op is "before" when it responded by the reshard's start, "after" when
/// it was invoked once the reshard was done, else "during". Latencies are
/// divided by `lat_unit`; rates are ops per `rate_unit` of the clock.
checker::check_result add_phases(table& t, const char* part,
                                 const store::store_histories& hist,
                                 const std::uint64_t (&bounds)[4],
                                 double lat_unit, double rate_unit,
                                 std::uint64_t failed) {
  struct phase {
    stats get_lat, put_lat;
    std::uint64_t ops{0};
  } w[3];
  const auto ops = ops_since(hist, bounds[0]);
  for (const bool is_put : {false, true}) {
    for (const auto& op : is_put ? ops.puts : ops.gets) {
      auto& ph = w[op.response <= bounds[1]  ? 0
                   : op.invoke >= bounds[2] ? 2
                                             : 1];
      ++ph.ops;
      (is_put ? ph.put_lat : ph.get_lat)
          .add(static_cast<double>(op.latency()) / lat_unit);
    }
  }
  const auto res = hist.verify();
  g_bad_rows += !res.ok || failed > 0;
  static const char* names[3] = {"before", "during", "after"};
  for (int p = 0; p < 3; ++p) {
    const auto ops_per_unit = static_cast<double>(w[p].ops) * rate_unit;
    const auto span = static_cast<double>(bounds[p + 1] - bounds[p]);
    t.add_row({part, names[p], std::to_string(w[p].ops),
               fmt(span > 0 ? ops_per_unit / span : 0, 1),
               fmt(w[p].get_lat.p50()), fmt(w[p].get_lat.p99()),
               fmt(w[p].put_lat.p50()), fmt(w[p].put_lat.p99()),
               std::to_string(failed), res.ok ? "0" : "1"});
  }
  return res;
}

// ------------------------------------------------------------ simulator --

void run_sim_part(table& t, bool crash_one) {
  const std::uint32_t num_keys = 32;
  const auto keys = make_keys(num_keys);
  store::store_config cfg;
  cfg.base.servers = 7;
  cfg.base.t_failures = 1;
  cfg.base.readers = 3;
  cfg.base.writers = 1;
  cfg.num_shards = 4;
  cfg.shard_protocols = {"abd"};
  store::sim_store s(cfg);

  rng r(1234);
  sim::uniform_delay delays(50, 150);
  const zipf_sampler zipf(num_keys, 1.1);
  reconfig::coordinator coord(s, keys);
  const reconfig::reconfig_plan plan{6, {"fast_swmr", "abd"}};
  bool started = false;
  std::uint64_t t_start = 0, t_done = 0;
  drive_sim(s, r, zipf_clients(keys, zipf, r, cfg.base.R(), 400), &delays,
            [&](std::uint64_t invoked) {
              if (!started && invoked >= 500) {
                started = true;
                t_start = s.world().now();
                // The crash variant kills a server AS the reshard begins;
                // it stays dead through the drains and the rest of the
                // run, so every handoff and every post-crash op runs on
                // quorums of 6.
                if (crash_one) s.crash_server(cfg.base.S() - 1);
                FASTREG_CHECK(coord.start(plan));
              }
              if (started && !coord.done()) {
                coord.step();
                if (coord.done()) t_done = s.world().now();
              }
              return started && !coord.done();
            });
  FASTREG_CHECK(started && coord.done());

  const char* label = crash_one ? "sim-crash" : "sim";
  const auto& hist = s.histories();
  const auto res =
      add_phases(t, label, hist, {0, t_start, t_done, s.world().now()}, 1,
                 1000, ops_since(hist, 0).incomplete);
  std::printf("%s reshard: epoch %llu, %zu/%zu keys migrated (%zu "
              "discovered), reconfig window %llu ticks%s%s\n",
              label,
              static_cast<unsigned long long>(coord.stats().new_epoch),
              coord.stats().keys_moved, coord.stats().keys_considered,
              coord.stats().keys_discovered,
              static_cast<unsigned long long>(t_done - t_start),
              crash_one ? ", 1 of 7 servers down throughout" : "",
              res.ok ? "" : " -- ATOMICITY VIOLATION (see below)");
  if (!res.ok) std::printf("  %s\n", res.error.c_str());
}

// ------------------------------------------------------------------ TCP --

void run_tcp_part(table& t) {
  const std::uint32_t num_keys = 16;
  const std::uint32_t ops_per_client = 900;
  const auto keys = make_keys(num_keys);
  store::store_config cfg;
  cfg.base.servers = 5;
  cfg.base.t_failures = 1;
  cfg.base.readers = 2;
  cfg.base.writers = 1;
  cfg.num_shards = 4;
  cfg.shard_protocols = {"abd"};
  store::tcp_store ts(cfg);
  ts.start();
  for (const auto& k : keys) {
    const store::store_op seed{k, /*is_put=*/true, k + ":0"};
    (void)store::submit_and_drain(ts.frontend(), writer_id(0), {&seed, 1});
  }

  // Depth-1 sessions: one op at a time per client, each on its own
  // driver thread.
  const zipf_sampler zipf(num_keys, 1.1);
  rng wr(7);
  std::vector<client_script> scripts{make_script(
      writer_id(0), 1, ops_per_client, [&](std::uint32_t n) {
        return store::store_op{keys[zipf.sample(wr)], /*is_put=*/true,
                               "w" + std::to_string(n + 1)};
      })};
  for (std::uint32_t i = 0; i < cfg.base.R(); ++i) {
    rng r(100 + i);
    scripts.push_back(
        make_script(reader_id(i), 1, ops_per_client, [&](std::uint32_t) {
          return store::store_op{keys[zipf.sample(r)], false, {}};
        }));
  }
  tcp_driver drv(ts, std::move(scripts), 1 + cfg.base.R());

  // Let the "before" window take half the ops, then reshard live.
  drv.wait_submitted(ops_per_client * (1 + cfg.base.R()) / 2);
  reconfig::coordinator coord(ts, keys);
  const std::uint64_t t_start = steady_now_ns();
  FASTREG_CHECK(coord.start({6, {"fast_swmr", "abd"}}));
  while (!coord.done()) {
    coord.step();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::uint64_t t_done = steady_now_ns();
  const std::uint64_t failed = drv.join();
  const std::uint64_t t_end = steady_now_ns();

  const auto res = add_phases(t, "tcp", ts.gather(),
                              {drv.start_ns(), t_start, t_done, t_end}, 1000,
                              1e9, failed);
  std::printf("tcp reshard: epoch %llu, %zu/%zu keys migrated, reconfig "
              "window %.1f ms%s\n",
              static_cast<unsigned long long>(coord.stats().new_epoch),
              coord.stats().keys_moved, coord.stats().keys_considered,
              static_cast<double>(t_done - t_start) / 1e6,
              res.ok ? "" : " -- ATOMICITY VIOLATION (see below)");
  if (!res.ok) std::printf("  %s\n", res.error.c_str());
  ts.stop();
}

// ---------------------------------------- rejoin fenced by a reshard --

void run_rejoin_part(table& t, persist::fsync_policy policy) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fastreg_e13_rejoin_" + std::to_string(::getpid()) +
                    "_" + std::string(persist::to_string(policy)));
  std::filesystem::create_directories(dir);
  const std::uint32_t num_keys = 16;
  const auto keys = make_keys(num_keys);
  store::store_config cfg;
  cfg.base.servers = 5;
  cfg.base.t_failures = 1;
  cfg.base.readers = 2;
  cfg.base.writers = 1;
  cfg.num_shards = 2;
  cfg.shard_protocols = {"abd"};
  cfg.persist.dir = dir.string();
  cfg.persist.fsync = policy;
  store::sim_store s(cfg);
  rng r(99);
  const zipf_sampler zipf(num_keys, 1.1);
  const std::uint32_t crash_index = cfg.base.S() - 1;
  reconfig::coordinator coord(s, keys);
  bool crashed = false, resharded = false;
  drive_sim(s, r, zipf_clients(keys, zipf, r, cfg.base.R(), 300),
            /*delays=*/nullptr, [&](std::uint64_t invoked) {
              if (!crashed && invoked >= 200) {
                crashed = true;
                s.crash_server(crash_index);
              }
              // Reshard while the server is down: its durable epoch goes
              // stale.
              if (crashed && !resharded && invoked >= 400) {
                resharded = true;
                FASTREG_CHECK(coord.start({3, {"abd"}}));
              }
              const bool active = resharded && !coord.done();
              if (active) coord.step();
              return active;
            });
  FASTREG_CHECK(resharded && coord.done());

  const auto log_b = [&] {
    std::error_code ec;
    const auto n = std::filesystem::file_size(
        persist::server_durability::log_path_for(dir.string(), crash_index),
        ec);
    return ec ? std::uint64_t{0} : static_cast<std::uint64_t>(n);
  }();
  const auto rec_t0 = std::chrono::steady_clock::now();
  s.restart_server(crash_index);
  const double recover_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - rec_t0)
          .count();
  const auto& ns = s.server_at(crash_index);
  const auto res = s.histories().verify();
  const std::uint64_t failed = ops_since(s.histories(), 0).incomplete;
  g_bad_rows += !res.ok || failed > 0;
  t.add_row({persist::to_string(policy), std::to_string(log_b),
             fmt(recover_us, 1), std::to_string(ns.recovered_objects()),
             std::to_string(
                 static_cast<unsigned long long>(s.shards()->epoch())),
             std::to_string(failed), res.ok ? "0" : "1"});
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

int main() {
  std::printf("E13: live resharding -- 4 shards of abd -> 6 shards of "
              "fast_swmr+abd under a Zipf(1.1) hot-key closed loop.\n"
              "sim latencies in ticks (rate ops/ktick); tcp latencies in "
              "microseconds, invoke to response from the op log (rate "
              "ops/s).\n"
              "sim-crash kills one of the 7 servers as the reshard starts "
              "(dead for the rest of the run).\n\n");
  table t({"part", "phase", "ops", "rate", "get_p50", "get_p99", "put_p50",
           "put_p99", "failed", "violations"});
  run_sim_part(t, /*crash_one=*/false);
  run_sim_part(t, /*crash_one=*/true);
  run_tcp_part(t);
  std::printf("\n");
  t.print();
  std::printf(
      "\nexpected shape: 'after' get p50 drops for keys promoted to "
      "fast_swmr (1 RTT vs abd's 2); 'during' shows the drain's tail "
      "(held ops complete when their key's handoff lands); sim-crash "
      "matches sim's shape -- quorum seeding keeps the migration and "
      "every held op live with a server down (the old full-fleet seed "
      "deadlocked here) -- at a slightly higher tail (quorums of 6 wait "
      "for the slowest of 6); the tcp rows run one fixed script (900 "
      "ops per client, the reshard starting at half of them); failed "
      "and violations stay 0 -- "
      "every op completes and per-key atomicity holds across the epoch "
      "boundary, crash or no crash.\n");

  std::printf("\nE13 part 4: durable server rejoins AFTER a reshard moved "
              "the epoch on (2 -> 3 abd shards while it was down)\n\n");
  table rj({"fsync", "stale_log_bytes", "recover_us", "recovered_objs",
            "epoch", "failed", "violations"});
  for (const auto policy :
       {persist::fsync_policy::never, persist::fsync_policy::interval,
        persist::fsync_policy::every_op}) {
    run_rejoin_part(rj, policy);
  }
  rj.print();
  std::printf(
      "\nexpected: recovered_objs = 0 everywhere -- the on-disk state "
      "carries the pre-reshard epoch, so the fence discards it and wipes "
      "the backing; the server re-bootstraps via lazy seed fetch, and "
      "failed and violations stay 0. recover_us is the replay-then-"
      "discard bill, flat across fsync policies (recovery only reads).\n");
  if (g_bad_rows > 0) {
    std::fprintf(stderr, "E13 FAILED: %d parts with violations or failed ops\n",
                 g_bad_rows);
  }
  return g_bad_rows > 0 ? 1 : 0;
}
