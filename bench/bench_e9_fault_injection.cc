// E9 -- wait-freedom under failures (Sections 2-4): reads and writes must
// terminate regardless of which t servers fail and when, including crashes
// that tear a broadcast in half. Measures latency impact of the crash
// pattern on the fast register and verifies every op still completes in
// one round-trip.
//
// Part 2: crash RECOVERY cost vs fsync policy. A store runs a Zipf load
// with per-server durability on (src/persist), one server is killed and
// restarted, and the row reports what the policy cost during the load
// (wall-clock, snapshot count and median snapshot time) and what recovery
// cost at restart (replay wall-clock, log/snapshot bytes replayed). The
// I/O is real even on the
// simulator -- the op log and snapshots are ordinary files.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "benchutil/table.h"
#include "benchutil/workload.h"
#include "checker/atomicity.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "persist/durable.h"
#include "registers/registry.h"
#include "store/sim_store.h"

using namespace fastreg;
using namespace fastreg::benchutil;

namespace {

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

void recovery_row(table& t, persist::fsync_policy policy) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fastreg_e9_recovery_" + std::to_string(::getpid()) +
                    "_" + std::string(persist::to_string(policy)));
  std::filesystem::create_directories(dir);

  store::store_config cfg;
  cfg.base.servers = 5;
  cfg.base.t_failures = 1;
  cfg.base.readers = 2;
  cfg.base.writers = 1;
  cfg.shard_protocols = {"abd"};
  cfg.persist.dir = dir.string();
  cfg.persist.fsync = policy;
  cfg.persist.snapshot_every = 256;
  // Each row reads its own snapshot histograms; rows share the labels.
  obs::reset_metrics();
  store::sim_store s(cfg);
  rng r(42);
  const zipf_sampler zipf(32, 0.99);
  const auto key = [&] { return "k" + std::to_string(zipf.sample(r)); };
  // One session per client for the whole load, one op in flight each.
  store::sim_frontend fe(s, r);
  auto writer = fe.open_session(writer_id(0), 1);
  std::vector<std::unique_ptr<store::async_session>> readers;
  for (std::uint32_t i = 0; i < cfg.base.R(); ++i) {
    readers.push_back(fe.open_session(reader_id(i), 1));
  }
  const auto issue = [](store::async_session& se, store::submit_status st) {
    FASTREG_CHECK(st == store::submit_status::submitted);
    se.pump();
    (void)se.take_results();
  };

  const std::uint32_t crash_index = cfg.base.S() - 1;
  auto& reg = obs::registry::instance();
  const auto& crash_records = reg.get_counter(
      "fastreg_persist_log_records_total",
      "node=\"" + to_string(server_id(crash_index)) + "\"");
  const std::uint64_t records_before = crash_records.value();
  std::uint32_t puts_left = 1000;
  std::vector<std::uint32_t> gets_left(cfg.base.R(), 500);
  std::uint64_t put_seq = 0, guard = 0;
  const auto load_t0 = std::chrono::steady_clock::now();
  for (;;) {
    FASTREG_CHECK(++guard < 100'000'000);
    bool invoked = false;
    if (puts_left > 0 && !s.writer_client(0).op_in_progress()) {
      --puts_left;
      invoked = true;
      issue(*writer, writer->try_put(key(), "v" + std::to_string(++put_seq)));
    }
    for (std::uint32_t i = 0; i < cfg.base.R(); ++i) {
      if (gets_left[i] == 0 || s.reader_client(i).op_in_progress()) continue;
      --gets_left[i];
      invoked = true;
      issue(*readers[i], readers[i]->try_get(key()));
    }
    if (s.world().in_transit().empty()) {
      if (invoked) continue;
      break;
    }
    s.run_random(r, 1);
  }
  const double load_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - load_t0)
          .count();

  // What the restarted server will replay.
  const auto log_path =
      persist::server_durability::log_path_for(dir.string(), crash_index);
  const auto snap_path =
      persist::server_durability::snap_path_for(dir.string(), crash_index);
  const std::uint64_t log_b = file_bytes(log_path);
  const std::uint64_t snap_b = file_bytes(snap_path);
  const std::uint64_t records = crash_records.value() - records_before;
  const auto snap_ns = [&](std::uint32_t i) -> const obs::histogram& {
    return reg.get_histogram("fastreg_persist_snapshot_ns",
                             "node=\"" + to_string(server_id(i)) + "\"");
  };
  std::uint64_t snapshots = 0;
  for (std::uint32_t i = 0; i < cfg.base.S(); ++i) {
    snapshots += snap_ns(i).count();
  }
  const double snap_p50_us =
      static_cast<double>(snap_ns(0).percentile(50)) / 1000.0;

  s.world().crash(server_id(crash_index));
  const auto rec_t0 = std::chrono::steady_clock::now();
  auto& ns = s.restart_server(crash_index);
  const double replay_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - rec_t0)
          .count();

  const auto res = s.histories().verify();
  t.add_row({persist::to_string(policy), std::to_string(2000),
             std::to_string(records), std::to_string(log_b),
             std::to_string(snap_b), std::to_string(snapshots),
             fmt(snap_p50_us, 1), fmt(load_ms, 1), fmt(replay_us, 1),
             std::to_string(ns.recovered_objects()),
             res.ok ? "yes" : "NO"});
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

int main() {
  std::printf("E9: wait-freedom and latency under server crashes\n\n");
  table t({"proto", "S", "t", "crashed", "when", "read_p50", "write_p50",
           "all_complete", "atomic", "fast"});
  struct c3 {
    const char* proto;
    std::uint32_t S, t, R;
  };
  for (const auto c : {c3{"fast_swmr", 16, 3, 2}, c3{"abd", 7, 3, 2}}) {
    for (const std::uint32_t crashes : {0u, c.t / 2 + 1, c.t}) {
      for (const bool midway : {false, true}) {
        if (crashes == 0 && midway) continue;
        system_config cfg;
        cfg.servers = c.S;
        cfg.t_failures = c.t;
        cfg.readers = c.R;
        workload_options opt;
        opt.num_writes = 20;
        opt.reads_per_reader = 10;
        opt.concurrent = true;
        opt.crash_servers = crashes;
        opt.crash_midway = midway;
        const auto rep = run_measured(*make_protocol(c.proto), cfg, opt);
        const int rd_limit = std::string(c.proto) == "abd" ? 2 : 1;
        t.add_row(
            {c.proto, std::to_string(c.S), std::to_string(c.t),
             std::to_string(crashes), midway ? "mid-run(torn)" : "up-front",
             fmt(rep.read_latency.p50()), fmt(rep.write_latency.p50()),
             rep.all_complete ? "yes" : "NO",
             checker::check_swmr_atomicity(rep.hist).ok ? "yes" : "NO",
             checker::check_fastness(rep.hist, rd_limit, 1).ok ? "yes"
                                                               : "NO"});
      }
    }
  }
  t.print();
  std::printf("\nexpected: all_complete/atomic/fast = yes everywhere; "
              "latency is essentially flat (clients wait for S-t replies "
              "regardless of crashes -- that is what wait-freedom buys).\n");

  std::printf("\nE9 part 2: crash recovery vs fsync policy (abd store, "
              "S=5/t=1, 2000-op Zipf load; one server killed then "
              "restarted with snapshot + log replay)\n\n");
  table rec({"fsync", "ops", "log_records", "log_bytes", "snap_bytes",
             "snapshots", "snap_p50_us", "load_ms", "replay_us",
             "recovered_objs", "atomic"});
  for (const auto policy :
       {persist::fsync_policy::never, persist::fsync_policy::interval,
        persist::fsync_policy::every_op}) {
    recovery_row(rec, policy);
  }
  rec.print();
  std::printf(
      "\nexpected shape: load_ms climbs never -> interval -> every_op "
      "(the fsync bill is paid at append time), while replay_us stays "
      "flat -- recovery reads the same snapshot + log tail whatever the "
      "policy, and snapshots keep the tail (and so replay) bounded. "
      "snapshots (all five servers) is the same under every policy; "
      "snap_p50_us (server s1) grows with the policy's fsyncs: none under "
      "never, the tmp file and its directory otherwise. "
      "recovered_objs > 0 and atomic = yes: the rejoined server serves "
      "its replayed state and the full history still linearizes.\n");
  return 0;
}
