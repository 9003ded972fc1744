// E12 -- multi-object store throughput: many named registers multiplexed
// over one server fleet, pipelined clients, batched transport.
//
// Part 1 (timed simulator): ops per kilotick and get-latency percentiles
// across key counts x shard protocol mixes, plus the batching win
// (envelopes per op vs messages per op -- the gap is traffic that shared
// one transport unit). Part 2 (localhost TCP): the same shape on real
// sockets, wall-clock microseconds.
// Part 3 (E12c) isolates the pipelined client depth on an 8-session
// workload whose rows vary ONLY that depth (1 and 8); each session has a
// client reactor, and so connections, of its own, so the client node's
// frames/writev column reads ~1.00, while a server answers every frame a
// pass read from one connection in one writev, so the servers' column
// shows the merging. Part 4 (E12d) is the session fan-in test for the
// sharded reactor pool: 1000 pipelined client sessions from ONE process
// (a 4-reactor hub node, one connection per hub reactor and server)
// against the same server fleet run with 1 reactor vs 4 reactors per
// node. `--smoke` runs a seconds-scale E12c (both depths, fewer rounds)
// plus E12d (the Release CI job uses it as a link/run sanity check and
// as the 1k-session gate).
// TCP rows run on the one TCP load driver; latencies are the op log's.
// Exits 1 (`E12 FAILED:` on stderr) when a row is not atomic or lost ops.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "benchutil/stats.h"
#include "benchutil/table.h"
#include "benchutil/tcp_driver.h"
#include "benchutil/workload.h"
#include "common/clock.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "store/tcp_store.h"

using namespace fastreg;
using namespace fastreg::benchutil;

namespace {

struct mix {
  const char* label;
  std::vector<std::string> protocols;
};

const std::vector<mix>& mixes() {
  static const std::vector<mix> m = {
      {"fast_swmr", {"fast_swmr"}},
      {"abd", {"abd"}},
      {"fast+abd", {"fast_swmr", "abd"}},
  };
  return m;
}

store::store_config make_store_cfg(const mix& m, std::uint32_t num_shards,
                                   std::uint32_t R) {
  store::store_config cfg;
  // S=7, t=1 keeps fast_swmr feasible up to R=4 (S > (R+2)t).
  cfg.base.servers = 7;
  cfg.base.t_failures = 1;
  cfg.base.readers = R;
  cfg.base.writers = 1;
  cfg.num_shards = num_shards;
  cfg.shard_protocols = m.protocols;
  return cfg;
}

/// Seeds keys 0..n-1 in one pipelined batch and connects the first R
/// readers to every server.
void warm_up(store::tcp_store& ts, std::uint32_t n, std::uint32_t R) {
  std::vector<store::store_op> seeds;
  for (std::uint32_t k = 0; k < n; ++k) {
    seeds.push_back(store::store_op{"key" + std::to_string(k), true, "seed"});
  }
  (void)store::submit_and_drain(ts.frontend(), writer_id(0), seeds);
  const store::store_op get{"key0", /*is_put=*/false, {}};
  for (std::uint32_t i = 0; i < R; ++i) {
    (void)store::submit_and_drain(ts.frontend(), reader_id(i), {&get, 1});
  }
}

/// Rows that are not atomic or lost ops; main() exits 1 when any exist.
int g_bad_rows = 0;

void run_sim_part() {
  std::printf("E12a: store throughput on the timed simulator "
              "(delay U[50,150] ticks, R=3 readers, batch=8)\n\n");
  table t({"keys", "shards", "mix", "ops/ktick", "get_p50", "get_p99",
           "env/op", "msg/op", "failed", "atomic"});
  for (const std::uint32_t keys : {8u, 64u, 512u}) {
    for (const std::uint32_t shards : {1u, 4u}) {
      for (const auto& m : mixes()) {
        store_workload_options opt;
        opt.num_keys = keys;
        opt.gets_per_reader = 240;
        opt.puts_per_writer = 80;
        opt.batch = 8;
        opt.seed = 42 + keys + shards;
        const auto cfg = make_store_cfg(m, shards, /*R=*/3);
        const auto rep = run_store_measured(cfg, opt);
        const std::uint64_t failed = ops_since(rep.hist, 0).incomplete;
        const bool atomic = rep.hist.verify().ok;
        g_bad_rows += !atomic || failed > 0;
        t.add_row({std::to_string(keys), std::to_string(shards), m.label,
                   fmt(rep.ops_per_ktick, 2), fmt(rep.get_latency.p50()),
                   fmt(rep.get_latency.p99()), fmt(rep.envelopes_per_op, 2),
                   fmt(rep.msgs_per_op, 2), std::to_string(failed),
                   atomic ? "yes" : "NO"});
      }
    }
  }
  t.print();
  std::printf("\nexpected shape: abd shards double get latency (2 RTT vs "
              "1); batching keeps env/op well under msg/op at batch=8; "
              "throughput is flat across key counts (shared fleet, "
              "independent objects).\n\n");
}

// ------------------------------------------------- TCP rows: one driver --

/// `n` ops of `client` on keys drawn uniformly from rng(seed): a writer
/// puts v1..vn, a reader gets.
client_script uniform_script(const process_id& client, std::uint64_t seed,
                             std::uint32_t keys, std::uint32_t n,
                             std::uint32_t depth) {
  rng r(seed);
  return make_script(client, depth, n, [&](std::uint32_t k) {
    return store::store_op{"key" + std::to_string(r.below(keys)),
                           client.is_writer(),
                           client.is_writer() ? "v" + std::to_string(k + 1)
                                              : value_t{}};
  });
}

/// One TCP row: the scripts through the one driver, then per-op latency
/// from the op log (the warmup, invoked earlier, is left out). ops/s
/// counts completed ops; the row counts toward g_bad_rows when it is not
/// atomic or lost ops.
struct tcp_row {
  double ops_s{0};
  stats get_us;
  std::uint64_t failed{0};
  bool atomic{false};
};

tcp_row drive(store::tcp_store& ts, std::vector<client_script> scripts,
              std::uint32_t threads) {
  tcp_driver drv(ts, std::move(scripts), threads);
  tcp_row row;
  row.failed = drv.join();
  const double secs = static_cast<double>(steady_now_ns() - drv.start_ns()) / 1e9;
  const auto hist = ts.gather();
  const auto ops = ops_since(hist, drv.start_ns());
  row.ops_s = static_cast<double>(ops.completed()) / secs;
  row.get_us = latencies(ops.gets, 1000);
  row.atomic = hist.verify().ok;
  g_bad_rows += !row.atomic || row.failed > 0;
  return row;
}

void run_tcp_part() {
  const std::uint32_t R = 2;
  const std::uint32_t rounds = 40;
  std::printf("E12b: store throughput over real TCP sockets (localhost, "
              "1 writer + 2 readers; each reader runs %u samples of 8 "
              "distinct keys through a depth-8 session)\n\n",
              rounds);
  table t({"keys", "mix", "ops/s", "get_p50_us", "get_p99_us", "failed",
           "atomic"});
  for (const std::uint32_t keys : {8u, 64u, 512u}) {
    for (const auto& m : mixes()) {
      store::tcp_store ts(make_store_cfg(m, /*num_shards=*/4, R));
      ts.start();
      warm_up(ts, std::min(keys, 8u), R);

      const std::uint32_t batch = std::min(8u, keys);
      std::vector<client_script> scripts{
          uniform_script(writer_id(0), 7, keys, rounds, 1)};
      for (std::uint32_t i = 0; i < R; ++i) {
        rng r(100 + i);
        std::vector<std::uint32_t> idx(keys);
        std::iota(idx.begin(), idx.end(), 0u);
        std::vector<std::string> sample;
        scripts.push_back(make_script(
            reader_id(i), batch, rounds * batch, [&](std::uint32_t k) {
              if (k % batch == 0) sample = sample_distinct_keys(r, idx, batch);
              return store::store_op{std::move(sample[k % batch]), false, {}};
            }));
      }
      const auto row = drive(ts, std::move(scripts), 1 + R);
      t.add_row({std::to_string(keys), m.label, fmt(row.ops_s, 0),
                 fmt(row.get_us.p50()), fmt(row.get_us.p99()),
                 std::to_string(row.failed), row.atomic ? "yes" : "NO"});
      ts.stop();
    }
  }
  t.print();
  std::printf("\nexpected shape: abd ~= 2x fast_swmr get latency (two "
              "round trips vs one); latency is each get's invoke-to-"
              "response time from the op log, so it includes the wait "
              "behind the other gets in the reader's window; ops/s "
              "counts completed ops and rises with the window because up "
              "to 8 in-flight gets share one batch frame per server.\n");
}

// ------------------------------------------------ E12c: pipeline depth --

void run_wire_knob_part(bool smoke) {
  std::printf("E12c: pipeline depth under 8 client sessions, one driver "
              "thread each (1 writer + 7 readers, abd shards, 64 keys, "
              "single-key ops). Rows vary ONLY the pipelined client "
              "depth; the first row (depth 1: one op at a time per "
              "client) is the baseline. frames/writev is the measured "
              "coalescing factor of the client node and of the servers, "
              "from a reset-free obs::interval_scrape per row.\n\n");
  const std::uint32_t R = 7;
  const std::uint32_t keys = 64;
  const std::uint32_t rounds = smoke ? 40 : 400;

  table t({"pipeline_depth", "ops/s", "get_p50_us",
           "get_p99_us", "vs_baseline", "client frames/writev",
           "server frames/writev", "failed", "atomic"});
  double base_ops = 0;
  // Registry counters are cumulative across rows (and earlier parts);
  // the interval scrape subtracts the previous snapshot so each row
  // reports only its own traffic, without resetting anything.
  obs::interval_scrape scrape;
  for (const std::uint32_t depth : {1u, 8u}) {
    store::tcp_store ts(make_store_cfg({"abd", {"abd"}}, 4, R));
    ts.start();
    warm_up(ts, keys, R);
    (void)scrape.take();  // drop the warmup's counter deltas

    // Depth 1 is the closed loop: each op waits for the previous one.
    std::vector<client_script> scripts{
        uniform_script(writer_id(0), 7, keys, rounds, depth)};
    for (std::uint32_t i = 0; i < R; ++i) {
      scripts.push_back(
          uniform_script(reader_id(i), 100 + i, keys, rounds, depth));
    }
    const auto row = drive(ts, std::move(scripts), 1 + R);
    if (base_ops == 0) base_ops = row.ops_s;
    const auto delta = scrape.take();
    // Server labels render as node="s1", ...; the rest is the client node.
    const auto per_writev = [&](const std::string& label) {
      const double frames =
          obs::series_sum(delta, "fastreg_net_frames_out_total", label);
      const double writevs =
          obs::series_sum(delta, "fastreg_net_writev_calls_total", label);
      return fmt(writevs > 0 ? frames / writevs : 0, 2);
    };
    const std::string client_label =
        "node=\"" + to_string(ts.cluster().client_node(writer_id(0)).self()) +
        "\"";
    t.add_row({std::to_string(depth), fmt(row.ops_s, 0),
               fmt(row.get_us.p50()), fmt(row.get_us.p99()),
               fmt(base_ops > 0 ? row.ops_s / base_ops : 0, 2) + "x",
               per_writev(client_label), per_writev("node=\"s"),
               std::to_string(row.failed), row.atomic ? "yes" : "NO"});
    ts.stop();
  }
  t.print();
  std::printf("\nexpected shape: depth 8 beats the baseline row's ops/s "
              "(a session begins every op of a step inside one batch "
              "frame per server, so up to 8 in-flight ops share a round's "
              "frames); client frames/writev ~= 1.00 at both depths, "
              "because each session runs on a client reactor of its own, "
              "whose connections carry one frame per pass; server "
              "frames/writev sits above 1 and rises with depth, because a "
              "server answers every frame one pass read from a "
              "connection in one writev.\n");
}

// ------------------------------------------------ E12d: session fan-in --

/// Live sum of every fastreg_net_reactor_connections series belonging to
/// a server node (labels render as node="s1", node="s2", ...).
double server_connections_now() {
  return obs::series_sum(obs::snapshot(), "fastreg_net_reactor_connections",
                         "node=\"s");
}

void run_fanin_part(bool smoke) {
  const std::uint32_t sessions = 1000;
  const std::uint32_t ops_per = smoke ? 2 : 8;
  const std::uint32_t writer_rounds = smoke ? 32 : 128;
  const std::uint32_t keys = 64;
  const std::uint32_t depth = 4;
  const std::uint32_t drivers = 8;
  std::printf(
      "E12d: session fan-in -- %u pipelined reader sessions (depth %u) "
      "from one process on a 4-reactor hub node, against S=3 abd servers "
      "run with 1 vs 4 reactors each (equal connection count, %u driver "
      "threads, %u gets/session + %u puts from one depth-1 writer "
      "session).\n\n",
      sessions, depth, drivers, ops_per, writer_rounds);

  table t({"server_reactors", "sessions", "server_conns", "ops/s",
           "get_p50_us", "vs_1reactor", "failed", "atomic"});
  double base_ops = 0;
  for (const std::uint32_t sreact : {1u, 4u}) {
    store::store_config cfg;
    cfg.base.servers = 3;
    cfg.base.t_failures = 1;
    cfg.base.readers = sessions;
    cfg.base.writers = 1;
    cfg.num_shards = 1;
    cfg.shard_protocols = {"abd"};
    net::cluster_options copt;
    copt.server_reactors = sreact;
    copt.client_hub = true;
    copt.hub_reactors = 4;
    store::tcp_store ts(cfg, net::node_options{}, copt);
    ts.start();
    // Gauge baseline: an earlier row's teardown may leave its final
    // decrements unflushed, so each row reports its own delta.
    const double conns0 = server_connections_now();
    warm_up(ts, keys, /*R=*/0);

    // Connection setup rides inside the measured window on purpose: the
    // row is "what can this process sustain from a cold fan-in".
    std::vector<client_script> scripts{
        uniform_script(writer_id(0), 7, keys, writer_rounds, 1)};
    for (std::uint32_t i = 0; i < sessions; ++i) {
      scripts.push_back(
          make_script(reader_id(i), depth, ops_per, [&](std::uint32_t n) {
            return store::store_op{"key" + std::to_string((i + n) % keys),
                                   false, {}};
          }));
    }
    const auto row = drive(ts, std::move(scripts), drivers);
    // A hub reactor's connections outlive the sessions, so they are all
    // still live here.
    const double conns = server_connections_now() - conns0;
    if (base_ops == 0) base_ops = row.ops_s;
    t.add_row({std::to_string(sreact), std::to_string(sessions),
               fmt(conns, 0), fmt(row.ops_s, 0), fmt(row.get_us.p50()),
               fmt(base_ops > 0 ? row.ops_s / base_ops : 0, 2) + "x",
               std::to_string(row.failed), row.atomic ? "yes" : "NO"});
    ts.stop();
  }
  t.print();
  std::printf("\nexpected shape: server_conns = hub_reactors x 3 servers "
              "= 12 in both rows, however many sessions: each hub reactor "
              "carries all of its sessions over one connection per "
              "server. vs_1reactor is what spreading a server node's 4 "
              "connections round-robin over 4 reactors buys over serving "
              "them on one epoll thread; failed 0 and atomic yes in both "
              "rows.\n\n");
}

// ------------------------------------------ --obs-check: telemetry gate --

/// One closed-loop measurement pass (depth-1 sessions: one op at a time
/// per client) over a warm store; returns get p50 in microseconds.
/// Identical work whether recording is on or off -- the caller toggles
/// the recorder around calls to isolate its cost.
double obs_check_pass(store::tcp_store& ts, std::uint32_t R,
                      std::uint32_t keys, int rounds) {
  std::vector<std::vector<double>> lat_us(R);
  std::thread writer([&] {
    rng r(7);
    auto w = ts.open_session(writer_id(0), /*depth=*/1);
    for (int n = 0; n < rounds; ++n) {
      (void)w->put("key" + std::to_string(r.below(keys)),
                   "v" + std::to_string(n + 1));
    }
    (void)w->drain();
  });
  std::vector<std::thread> readers;
  for (std::uint32_t i = 0; i < R; ++i) {
    readers.emplace_back([&, i] {
      rng r(100 + i);
      auto se = ts.open_session(reader_id(i), /*depth=*/1);
      for (int n = 0; n < rounds; ++n) {
        const auto s0 = std::chrono::steady_clock::now();
        const bool ok = se->get("key" + std::to_string(r.below(keys))) &&
                        se->drain();
        const auto s1 = std::chrono::steady_clock::now();
        (void)se->take_results();
        if (!ok) continue;
        lat_us[i].push_back(
            std::chrono::duration<double, std::micro>(s1 - s0).count());
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  stats get_us;
  for (const auto& per_reader : lat_us) {
    for (const double v : per_reader) get_us.add(v);
  }
  return get_us.p50();
}

/// CI gate: (a) the in-process registry dump parses under the exposition
/// grammar and carries the store, admission and reactor series, and (b)
/// closed-loop get p50 with the flight recorder ON stays within
/// 5% of recording off in the SAME run. Rotating passes, best-of-5 per
/// mode: the min is what the machine can do, so a spurious scheduler
/// spike in one pass cannot fake (or mask) a regression. Writes the dump
/// to `dump_path` (when given) for the external obs_check validator.
int run_obs_check(const char* dump_path) {
  std::printf("E12 --obs-check: recording overhead + registry dump "
              "validation\n\n");
  const std::uint32_t R = 4;
  const std::uint32_t keys = 64;
  const int rounds = 150;
  store::tcp_store ts(make_store_cfg({"abd", {"abd"}}, 4, R));
  ts.start();
  warm_up(ts, keys, R);
  {
    // Push back once so the key_busy admission counter exists and the
    // dump check below covers it. The session is closed before the
    // measurement passes open their own on the same index.
    auto se = ts.open_session(reader_id(0), /*depth=*/2);
    (void)se->try_get("key0");
    (void)se->try_get("key0");  // key_busy: counted, not submitted
    (void)se->drain();
  }

  double best_off = 0;
  double best_rec = 0;
  double best_rec_ratio = 0;
  // Mode order rotates across passes: a fixed order would hand whichever
  // mode always runs last any systematic drift (thermal, page cache) as
  // a fake regression. Five passes: the per-event cost is ~40ns (a few
  // us per op against a several-hundred-us p50), so the gate is really
  // measuring scheduler noise -- the min of five keeps it below the 5%
  // threshold. Two ways to pass, either suffices: the global minima
  // compare (best each mode ever did), and the best WITHIN-pass ratio
  // (two adjacent measurements, so multi-second load drift -- which can
  // deny one mode the quiet window the other got -- cancels out).
  for (int i = 0; i < 5; ++i) {
    double off = 0, rec = 0;
    for (int m = 0; m < 2; ++m) {
      const bool recording = (i + m) % 2 == 1;
      obs::set_recording(recording);
      (recording ? rec : off) = obs_check_pass(ts, R, keys, rounds);
    }
    std::printf("  pass %d: get_p50 off=%sus record=%sus\n", i + 1,
                fmt(off).c_str(), fmt(rec).c_str());
    if (i == 0 || off < best_off) best_off = off;
    if (i == 0 || rec < best_rec) best_rec = rec;
    if (off > 0 && (i == 0 || rec / off < best_rec_ratio)) {
      best_rec_ratio = rec / off;
    }
  }
  obs::set_recording(false);

  const std::string dump = obs::render_text();
  ts.stop();

  bool ok = true;
  if (const auto err = obs::validate_dump(dump); !err.empty()) {
    std::printf("FAIL: registry dump invalid: %s\n", err.c_str());
    ok = false;
  } else if (dump.find("fastreg_store_ops_total") == std::string::npos) {
    std::printf("FAIL: dump lacks fastreg_store_ops_total\n");
    ok = false;
  } else if (dump.find("fastreg_store_admission_total") ==
             std::string::npos) {
    std::printf("FAIL: dump lacks fastreg_store_admission_total\n");
    ok = false;
  } else if (dump.find("fastreg_net_reactor_connections") ==
             std::string::npos) {
    std::printf("FAIL: dump lacks fastreg_net_reactor_connections\n");
    ok = false;
  } else {
    std::printf("registry dump: %zu bytes, valid\n", dump.size());
  }
  if (dump_path != nullptr) {
    if (std::FILE* f = std::fopen(dump_path, "w")) {
      std::fwrite(dump.data(), 1, dump.size(), f);
      std::fclose(f);
    }
  }
  const double limit = best_off * 1.05;
  std::printf("overhead: best p50 off=%sus record=%sus (limit %sus); "
              "best within-pass ratio record=%s\n",
              fmt(best_off).c_str(), fmt(best_rec).c_str(),
              fmt(limit).c_str(), fmt(best_rec_ratio, 3).c_str());
  if (best_rec > limit && best_rec_ratio > 1.05) {
    std::printf("FAIL: recording-on p50 regressed more than 5%%\n");
    ok = false;
  }
  std::printf("%s\n", ok ? "OBS-CHECK PASS" : "OBS-CHECK FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--obs-check") == 0) {
    return run_obs_check(argc > 2 ? argv[2] : nullptr);
  }
  const bool smoke =
      argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  if (smoke) {
    // Link/run sanity for the Release CI job: the full wire path end to
    // end (sim + TCP + pipeline), seconds not minutes, plus the
    // 1k-session fan-in gate against the 4-reactor servers.
    run_wire_knob_part(/*smoke=*/true);
    run_fanin_part(/*smoke=*/true);
  } else {
    run_sim_part();
    run_tcp_part();
    run_wire_knob_part(/*smoke=*/false);
    run_fanin_part(/*smoke=*/false);
  }
  if (g_bad_rows > 0) {
    std::fprintf(stderr, "E12 FAILED: %d rows not atomic or with failed ops\n",
                 g_bad_rows);
  }
  return g_bad_rows > 0 ? 1 : 0;
}
