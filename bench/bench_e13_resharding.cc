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
// Part 3 (localhost TCP): same reshard on real sockets with concurrently
// operating client threads, wall-clock microseconds.
//
// Part 4 (timed simulator, durable): a server with per-server durability
// (src/persist) is killed mid-load, the fleet reshards WITHOUT it, and it
// restarts afterwards. Its on-disk state carries the old epoch, so the
// rejoin is epoch-FENCED: the state (and its disk backing) is discarded
// and the server re-bootstraps through the lazy seed-fetch path. One row
// per fsync policy puts a number on that worst-case recovery (replay +
// discard) next to E9's happy-path replay.
//
// Every history is checked per key; the "violations" column must be 0.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "benchutil/stats.h"
#include "benchutil/table.h"
#include "benchutil/workload.h"
#include "common/rng.h"
#include "persist/durable.h"
#include "reconfig/control.h"
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

/// A depth-1 session for the writer and every reader of a sim_store, open
/// for the whole run: each op is issued in its own invocation step and
/// completes through the session's world step hook.
class sim_sessions {
 public:
  sim_sessions(store::sim_store& s, rng& r)
      : fe_(s, r), writer_(fe_.open_session(writer_id(0), 1)) {
    for (std::uint32_t i = 0; i < s.config().base.R(); ++i) {
      readers_.push_back(fe_.open_session(reader_id(i), 1));
    }
  }

  void put(const std::string& key, value_t v) {
    issue(*writer_, writer_->try_put(key, std::move(v)));
  }
  void get(std::uint32_t reader, const std::string& key) {
    issue(*readers_[reader], readers_[reader]->try_get(key));
  }

 private:
  static void issue(store::async_session& se, store::submit_status st) {
    FASTREG_CHECK(st == store::submit_status::submitted);
    se.pump();
    (void)se.take_results();
  }

  store::sim_frontend fe_;
  std::unique_ptr<store::async_session> writer_;
  std::vector<std::unique_ptr<store::async_session>> readers_;
};

struct phase_window {
  stats get_lat;
  stats put_lat;
  std::uint64_t ops{0};
  double span{0};  // ticks or seconds

  [[nodiscard]] double rate(double scale) const {
    return span > 0 ? static_cast<double>(ops) * scale / span : 0;
  }
};

void add_op(phase_window& w, bool is_put, double lat) {
  ++w.ops;
  (is_put ? w.put_lat : w.get_lat).add(lat);
}

void print_phases(table& t, const char* transport, phase_window (&w)[3],
                  double rate_scale, std::size_t violations) {
  static const char* names[3] = {"before", "during", "after"};
  for (int p = 0; p < 3; ++p) {
    t.add_row({transport, names[p], std::to_string(w[p].ops),
               fmt(w[p].rate(rate_scale), 1), fmt(w[p].get_lat.p50()),
               fmt(w[p].get_lat.p99()), fmt(w[p].put_lat.p50()),
               fmt(w[p].put_lat.p99()), std::to_string(violations)});
  }
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
  sim_sessions ses(s, r);

  reconfig::sim_control ctl(s);
  reconfig::coordinator coord(ctl, keys);
  const reconfig::reconfig_plan plan{6, {"fast_swmr", "abd"}};

  std::uint32_t puts_left = 400;
  std::vector<std::uint32_t> gets_left(cfg.base.R(), 400);
  std::uint64_t put_seq = 0;
  bool started = false;
  std::uint64_t t_start = 0, t_done = 0;
  std::uint64_t guard = 0;

  auto quota_spent = [&] {
    std::uint32_t left = puts_left;
    for (const auto g : gets_left) left += g;
    return 400u * 4u - left;
  };

  for (;;) {
    FASTREG_CHECK(++guard < 100'000'000);
    if (!started && quota_spent() >= 500) {
      started = true;
      t_start = s.world().now();
      // The crash variant kills a server AS the reshard begins; it stays
      // dead through the drains and the rest of the run, so every
      // handoff and every post-crash op runs on quorums of 6.
      if (crash_one) s.world().crash(server_id(cfg.base.S() - 1));
      FASTREG_CHECK(coord.start(s.shards(), plan));
    }
    if (started && !coord.done()) {
      coord.step();
      if (coord.done()) t_done = s.world().now();
    }
    bool invoked = false;
    if (puts_left > 0 && !s.writer_client(0).op_in_progress()) {
      --puts_left;
      const auto& key = keys[zipf.sample(r)];
      ses.put(key, "v" + std::to_string(++put_seq));
      invoked = true;
    }
    for (std::uint32_t i = 0; i < cfg.base.R(); ++i) {
      if (gets_left[i] == 0 || s.reader_client(i).op_in_progress()) continue;
      --gets_left[i];
      ses.get(i, keys[zipf.sample(r)]);
      invoked = true;
    }
    if (s.world().in_transit().empty()) {
      if (invoked) continue;
      if (started && !coord.done()) continue;  // control actions pending
      break;
    }
    s.run_timed(r, delays, /*max_steps=*/1);
  }
  FASTREG_CHECK(started && coord.done());

  // Classify each completed op against the reconfiguration window.
  phase_window w[3];
  bool all_complete = true;
  for (const auto& [key, h] : s.histories().all()) {
    for (const auto& op : h.ops()) {
      if (!op.response_time) {
        all_complete = false;
        continue;
      }
      const int p = *op.response_time <= t_start ? 0
                    : op.invoke_time >= t_done   ? 2
                                                 : 1;
      add_op(w[p], op.is_write,
             static_cast<double>(*op.response_time - op.invoke_time));
    }
  }
  w[0].span = static_cast<double>(t_start);
  w[1].span = static_cast<double>(t_done - t_start);
  w[2].span = static_cast<double>(s.world().now() - t_done);

  const auto res = s.histories().verify();
  const std::size_t violations = (res.ok && all_complete) ? 0 : 1;
  const char* label = crash_one ? "sim-crash" : "sim";
  print_phases(t, label, w, 1000.0, violations);
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

  struct sample {
    double done_s;  // completion time, seconds since bench start
    double lat_us;
    bool is_put;
  };
  std::vector<std::vector<sample>> per_thread(1 + cfg.base.R());
  const auto bench_t0 = std::chrono::steady_clock::now();
  auto since_start = [&](std::chrono::steady_clock::time_point tp) {
    return std::chrono::duration<double>(tp - bench_t0).count();
  };

  std::atomic<bool> stop{false};
  const zipf_sampler zipf(num_keys, 1.1);
  std::thread writer([&] {
    rng r(7);
    // Depth-1 sessions: one op at a time per client, timed end to end.
    auto se = ts.open_session(writer_id(0), /*depth=*/1);
    for (std::uint64_t n = 1; !stop.load(); ++n) {
      const auto& key = keys[zipf.sample(r)];
      const auto s0 = std::chrono::steady_clock::now();
      const bool ok = se->put(key, "w" + std::to_string(n)) && se->drain();
      const auto s1 = std::chrono::steady_clock::now();
      (void)se->take_results();
      if (!ok) continue;
      per_thread[0].push_back(
          {since_start(s1),
           std::chrono::duration<double, std::micro>(s1 - s0).count(),
           true});
    }
  });
  std::vector<std::thread> readers;
  for (std::uint32_t i = 0; i < cfg.base.R(); ++i) {
    readers.emplace_back([&, i] {
      rng r(100 + i);
      auto se = ts.open_session(reader_id(i), /*depth=*/1);
      while (!stop.load()) {
        const auto& key = keys[zipf.sample(r)];
        const auto s0 = std::chrono::steady_clock::now();
        const bool ok = se->get(key) && se->drain();
        const auto s1 = std::chrono::steady_clock::now();
        (void)se->take_results();
        if (!ok) continue;
        per_thread[1 + i].push_back(
            {since_start(s1),
             std::chrono::duration<double, std::micro>(s1 - s0).count(),
             false});
      }
    });
  }

  // Let the "before" window accumulate, then reshard live.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  reconfig::tcp_control ctl(ts);
  reconfig::coordinator coord(ctl, keys);
  const double t_start = since_start(std::chrono::steady_clock::now());
  FASTREG_CHECK(
      coord.start(ts.proto().shards(), {6, {"fast_swmr", "abd"}}));
  while (!coord.done()) {
    coord.step();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double t_done = since_start(std::chrono::steady_clock::now());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true);
  writer.join();
  for (auto& th : readers) th.join();
  const double t_end = since_start(std::chrono::steady_clock::now());

  phase_window w[3];
  for (const auto& samples : per_thread) {
    for (const auto& sm : samples) {
      const int p = sm.done_s <= t_start ? 0 : sm.done_s >= t_done ? 2 : 1;
      add_op(w[p], sm.is_put, sm.lat_us);
    }
  }
  w[0].span = t_start;
  w[1].span = t_done - t_start;
  w[2].span = t_end - t_done;

  const auto res = ts.gather().verify();
  const std::size_t violations = res.ok ? 0 : 1;
  print_phases(t, "tcp", w, 1.0, violations);
  std::printf("tcp reshard: epoch %llu, %zu/%zu keys migrated, reconfig "
              "window %.1f ms%s\n",
              static_cast<unsigned long long>(coord.stats().new_epoch),
              coord.stats().keys_moved, coord.stats().keys_considered,
              (t_done - t_start) * 1e3,
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
  sim_sessions ses(s, r);

  const std::uint32_t crash_index = cfg.base.S() - 1;
  std::uint32_t puts_left = 300;
  std::vector<std::uint32_t> gets_left(cfg.base.R(), 300);
  std::uint64_t put_seq = 0, guard = 0, invoked = 0;
  bool crashed = false, resharded = false;
  std::optional<reconfig::sim_control> ctl;
  std::optional<reconfig::coordinator> coord;
  for (;;) {
    FASTREG_CHECK(++guard < 100'000'000);
    if (!crashed && invoked >= 200) {
      crashed = true;
      s.world().crash(server_id(crash_index));
    }
    // Reshard while the server is down: its durable epoch goes stale.
    if (crashed && !resharded && invoked >= 400) {
      resharded = true;
      ctl.emplace(s);
      coord.emplace(*ctl, keys);
      FASTREG_CHECK(coord->start(s.shards(), {3, {"abd"}}));
    }
    const bool coord_active = coord.has_value() && !coord->done();
    if (coord_active) coord->step();
    bool invoked_now = false;
    if (puts_left > 0 && !s.writer_client(0).op_in_progress()) {
      --puts_left;
      ++invoked;
      invoked_now = true;
      ses.put(keys[zipf.sample(r)], "v" + std::to_string(++put_seq));
    }
    for (std::uint32_t i = 0; i < cfg.base.R(); ++i) {
      if (gets_left[i] == 0 || s.reader_client(i).op_in_progress()) continue;
      --gets_left[i];
      ++invoked;
      invoked_now = true;
      ses.get(i, keys[zipf.sample(r)]);
    }
    if (s.world().in_transit().empty()) {
      if (invoked_now || coord_active) continue;
      break;
    }
    s.run_random(r, /*max_steps=*/1);
  }
  FASTREG_CHECK(coord.has_value() && coord->done());

  const auto log_b = [&] {
    std::error_code ec;
    const auto n = std::filesystem::file_size(
        persist::server_durability::log_path_for(dir.string(), crash_index),
        ec);
    return ec ? std::uint64_t{0} : static_cast<std::uint64_t>(n);
  }();
  const auto rec_t0 = std::chrono::steady_clock::now();
  auto& ns = s.restart_server(crash_index);
  const double recover_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - rec_t0)
          .count();
  const auto res = s.histories().verify();
  t.add_row({persist::to_string(policy), std::to_string(log_b),
             fmt(recover_us, 1), std::to_string(ns.recovered_objects()),
             std::to_string(
                 static_cast<unsigned long long>(s.shards()->epoch())),
             res.ok ? "0" : "1"});
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

int main() {
  std::printf("E13: live resharding -- 4 shards of abd -> 6 shards of "
              "fast_swmr+abd under a Zipf(1.1) hot-key closed loop.\n"
              "sim latencies in ticks (rate ops/ktick); tcp latencies in "
              "microseconds (rate ops/s).\n"
              "sim-crash kills one of the 7 servers as the reshard starts "
              "(dead for the rest of the run).\n\n");
  table t({"part", "phase", "ops", "rate", "get_p50", "get_p99", "put_p50",
           "put_p99", "violations"});
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
      "for the slowest of 6); violations stays 0 -- per-key atomicity "
      "holds across the epoch boundary, crash or no crash.\n");

  std::printf("\nE13 part 4: durable server rejoins AFTER a reshard moved "
              "the epoch on (2 -> 3 abd shards while it was down)\n\n");
  table rj({"fsync", "stale_log_bytes", "recover_us", "recovered_objs",
            "epoch", "violations"});
  for (const auto policy :
       {persist::fsync_policy::never, persist::fsync_policy::interval,
        persist::fsync_policy::every_op}) {
    run_rejoin_part(rj, policy);
  }
  rj.print();
  std::printf(
      "\nexpected: recovered_objs = 0 everywhere -- the on-disk state "
      "carries the pre-reshard epoch, so the fence discards it and wipes "
      "the backing; the server re-bootstraps via lazy seed fetch and "
      "violations stays 0. recover_us is the replay-then-discard bill, "
      "flat across fsync policies (recovery only reads).\n");
  return 0;
}
