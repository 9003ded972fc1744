#include "benchutil/stress.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "common/check.h"
#include "common/rng.h"
#include "crypto/sig.h"
#include "obs/recorder.h"
#include "persist/options.h"
#include "reconfig/control.h"
#include "reconfig/coordinator.h"
#include "reconfig/plan.h"
#include "store/sim_store.h"
#include "store/tcp_store.h"

namespace fastreg::benchutil {
namespace {

store::store_config make_store_cfg(const stress_options& opt) {
  store::store_config cfg;
  cfg.base.servers = opt.S;
  cfg.base.t_failures = opt.t;
  cfg.base.b_malicious = opt.b;
  cfg.base.readers = opt.R;
  cfg.base.writers = opt.W;
  if (!opt.sig_scheme.empty()) {
    cfg.base.sigs =
        crypto::make_signature_scheme(opt.sig_scheme, /*seed=*/opt.seed);
  }
  cfg.num_shards = opt.num_shards;
  cfg.shard_protocols = {opt.protocol};
  if (!opt.persist_dir.empty()) {
    cfg.persist = persist::options::from_env(opt.persist_dir);
  }
  return cfg;
}

std::vector<std::string> make_keys(std::uint32_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    keys.push_back("k" + std::to_string(i));
  }
  return keys;
}

reconfig::reconfig_plan make_reshard_plan(const stress_options& opt) {
  reconfig::reconfig_plan plan;
  plan.num_shards = opt.reshard_num_shards != 0 ? opt.reshard_num_shards
                                                : opt.num_shards + 1;
  plan.shard_protocols = opt.reshard_protocols.empty()
                             ? std::vector<std::string>{opt.protocol}
                             : opt.reshard_protocols;
  return plan;
}

/// Dumps the failing key's full history next to the test (the ctest
/// working directory) and returns the path for the failure message.
std::string write_failure_dump(const stress_options& opt,
                               std::uint64_t seed,
                               const checker::history& h,
                               const std::string& failing_key,
                               const std::string& error) {
  const std::string path =
      opt.label + "_seed_" + std::to_string(seed) + ".history";
  std::ofstream out(path);
  out << "# fastreg stress failure\n"
      << "# label: " << opt.label << "  protocol: " << opt.protocol << "\n"
      << "# replay: FASTREG_STRESS_SEED=" << seed << "\n"
      << "# failing key: " << failing_key << "\n"
      << "# error: " << error << "\n\n"
      << h.dump();
  return path;
}

/// Forensics: on a checker failure with the flight recorder on, dump
/// every node's ring next to the history dump, pre-filtered to the
/// violating key's object, and return the paths.
std::vector<std::string> write_recorder_dumps(const stress_options& opt,
                                              std::uint64_t seed,
                                              const std::string& failing_key) {
  std::vector<std::string> paths;
  if (!obs::recording_active()) return paths;
  const object_id obj = store::key_object_id(failing_key);
  for (const auto& [node, dump] : obs::recorder_dump_all(obj)) {
    std::string path = opt.label + "_seed_" + std::to_string(seed) + "." +
                       node + ".recorder";
    std::ofstream out(path);
    out << dump;
    paths.push_back(std::move(path));
  }
  return paths;
}

/// Per-key verification; on a violation, records the error and dumps
/// the offending history (plus recorder forensics when recording).
void verify_into(stress_report& rep, const stress_options& opt,
                 const store::store_histories& hist) {
  std::string failing_key;
  rep.check = hist.verify(stress_verify_mode(opt), &failing_key);
  if (rep.check.ok) return;
  const auto it = hist.all().find(failing_key);
  if (it != hist.all().end()) {
    rep.dump_path = write_failure_dump(opt, rep.seed, it->second,
                                       failing_key, rep.check.error);
  }
  rep.recorder_paths = write_recorder_dumps(opt, rep.seed, failing_key);
}

void fill_counts(stress_report& rep, const store::store_histories& hist) {
  rep.total_ops = hist.total_ops();
  rep.max_key_ops = hist.max_key_ops();
  rep.all_complete = hist.all_complete();
}

}  // namespace

std::string stress_report::describe() const {
  std::string s = "seed=" + std::to_string(seed) +
                  " (replay with FASTREG_STRESS_SEED=" +
                  std::to_string(seed) + ")";
  if (!check.ok) s += "; " + check.error;
  if (!dump_path.empty()) s += "; failing history dumped to " + dump_path;
  if (!recorder_paths.empty()) {
    s += "; flight-recorder dumps (" +
         std::to_string(recorder_paths.size()) + " nodes, merge with "
         "tools/trace_merge): " +
         recorder_paths.front() + " ...";
  }
  if (!all_complete) s += "; some operations never completed";
  if (op_failures > 0) {
    s += "; " + std::to_string(op_failures) + " client ops failed";
  }
  return s;
}

store::verify_mode stress_verify_mode(const stress_options& opt) {
  if (opt.W > 1) return store::verify_mode::mwmr;
  if (opt.protocol == "regular") return store::verify_mode::swmr_regular;
  return store::verify_mode::swmr_atomic;
}

std::uint64_t stress_seed_from_env() {
  if (const char* env = std::getenv("FASTREG_STRESS_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  std::random_device rd;
  std::uint64_t seed = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  seed ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return seed;
}

std::uint32_t stress_iters(std::uint32_t base) {
  std::uint64_t mult = 1;
  if (const char* env = std::getenv("FASTREG_STRESS_ITERS")) {
    mult = std::strtoull(env, nullptr, 0);
    if (mult == 0) mult = 1;
  }
  const std::uint64_t scaled = static_cast<std::uint64_t>(base) * mult;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(scaled, 0xffffffffull));
}

// ------------------------------------------------------------- simulator --

stress_report run_sim_stress(const stress_options& opt) {
  FASTREG_EXPECTS(opt.crash_servers <= opt.t);
  // Crashed and partitioned servers are BOTH unreachable until the heal,
  // so they share one t budget: a combined count above t would stall
  // every quorum, freeze the invocation counter below the heal trigger,
  // and spin into the step-guard abort instead of failing here.
  FASTREG_EXPECTS(opt.crash_servers + opt.partition_servers <= opt.t);
  stress_report rep;
  rep.seed = opt.seed;
  // Recorders are process-global; start each run from an empty ring so a
  // failure's forensics dump holds only this run's events.
  if (obs::recording_active()) obs::recorder_reset_all();

  store::sim_store s(make_store_cfg(opt));
  rng r(opt.seed);
  sim::uniform_delay delays(opt.delay_lo, opt.delay_hi);
  const auto keys = make_keys(opt.num_keys);
  // One depth-1 session per client for the whole run; each op is issued
  // in its own invocation step.
  store::sim_frontend fe(s, r);
  std::vector<std::unique_ptr<store::async_session>> wses, rses;
  for (std::uint32_t j = 0; j < opt.W; ++j) {
    wses.push_back(fe.open_session(writer_id(j), 1));
  }
  for (std::uint32_t i = 0; i < opt.R; ++i) {
    rses.push_back(fe.open_session(reader_id(i), 1));
  }
  const auto issue = [](store::async_session& se, store::submit_status st) {
    FASTREG_CHECK(st == store::submit_status::submitted);
    se.pump();
    (void)se.take_results();
  };

  std::vector<std::uint32_t> puts_left(opt.W, opt.puts_per_writer);
  std::vector<std::uint32_t> gets_left(opt.R, opt.gets_per_reader);
  std::vector<std::uint64_t> put_seq(opt.W, 0);
  const std::uint64_t total =
      static_cast<std::uint64_t>(opt.W) * opt.puts_per_writer +
      static_cast<std::uint64_t>(opt.R) * opt.gets_per_reader;
  const std::uint64_t trigger = total / 3;

  std::uint64_t invoked = 0, guard = 0;
  bool crashed = false, restarted = false;
  bool partitioned = false, healed = false;
  std::optional<reconfig::sim_control> ctl;
  std::optional<reconfig::coordinator> coord;

  // Every process a partitioned server would talk to: clients and the
  // rest of the fleet (servers gossip in the maxmin family).
  const auto isolate = [&](const process_id& srv, bool block) {
    const auto flip = [&](const process_id& peer) {
      if (peer == srv) return;
      if (block) {
        s.world().partition(srv, peer);
      } else {
        s.world().heal(srv, peer);
      }
    };
    for (std::uint32_t j = 0; j < opt.W; ++j) flip(writer_id(j));
    for (std::uint32_t i = 0; i < opt.R; ++i) flip(reader_id(i));
    for (std::uint32_t k = 0; k < opt.S; ++k) flip(server_id(k));
  };

  for (;;) {
    FASTREG_CHECK(++guard < 200'000'000);
    if (!crashed && opt.crash_servers > 0 && invoked >= trigger) {
      crashed = true;
      for (std::uint32_t i = 0; i < opt.crash_servers; ++i) {
        s.world().crash(server_id(opt.S - 1 - i));
      }
    }
    if (!partitioned && opt.partition_servers > 0 && invoked >= trigger) {
      partitioned = true;
      for (std::uint32_t i = 0; i < opt.partition_servers; ++i) {
        isolate(server_id(i), /*block=*/true);
      }
    }
    if (crashed && opt.restart_crashed && !restarted &&
        invoked >= 2 * trigger) {
      restarted = true;
      for (std::uint32_t i = 0; i < opt.crash_servers; ++i) {
        // Replays snapshot + op log when persist_dir is set; the last
        // third of the workload then runs against the full fleet, so a
        // recovery that resurrected stale state shows up in the checker.
        s.restart_server(opt.S - 1 - i);
      }
    }
    if (partitioned && !healed && invoked >= 2 * trigger) {
      healed = true;
      for (std::uint32_t i = 0; i < opt.partition_servers; ++i) {
        isolate(server_id(i), /*block=*/false);
      }
    }
    if (opt.reshard && !coord && invoked >= trigger) {
      ctl.emplace(s);
      coord.emplace(*ctl);
      if (!coord->start(s.shards(), make_reshard_plan(opt))) {
        rep.check = {false, "reshard failed to start: " + coord->error()};
        fill_counts(rep, s.histories());
        return rep;
      }
    }
    const bool coord_active = coord.has_value() && !coord->done();
    if (coord_active) coord->step();

    bool invoked_now = false;
    for (std::uint32_t j = 0; j < opt.W; ++j) {
      if (puts_left[j] == 0 || s.writer_client(j).op_in_progress()) continue;
      --puts_left[j];
      ++invoked;
      invoked_now = true;
      auto& se = *wses[j];
      issue(se, se.try_put(keys[r.below(keys.size())],
                           "w" + std::to_string(j) + ":" +
                               std::to_string(++put_seq[j])));
    }
    for (std::uint32_t i = 0; i < opt.R; ++i) {
      if (gets_left[i] == 0 || s.reader_client(i).op_in_progress()) continue;
      --gets_left[i];
      ++invoked;
      invoked_now = true;
      auto& se = *rses[i];
      issue(se, se.try_get(keys[r.below(keys.size())]));
    }

    if (s.world().in_transit().empty()) {
      if (invoked_now || coord_active) continue;
      break;  // drained: quotas spent (or nothing can ever move again)
    }
    if (opt.timed) {
      s.run_timed(r, delays, /*max_steps=*/1);
    } else {
      s.run_random(r, /*max_steps=*/1);
    }
  }

  rep.final_epoch = s.proto().maps()->epoch();
  fill_counts(rep, s.histories());
  verify_into(rep, opt, s.histories());
  return rep;
}

// ------------------------------------------------------------------- TCP --

stress_report run_tcp_stress(const stress_options& opt) {
  FASTREG_EXPECTS(opt.crash_servers <= opt.t);
  // Paused and crashed servers are both unreachable until the heal; a
  // combined count above t would stall every quorum (same budget rule as
  // the simulator schedule).
  FASTREG_EXPECTS(opt.crash_servers + opt.partition_servers <= opt.t);
  FASTREG_EXPECTS(opt.pipeline_depth >= 1);
  stress_report rep;
  rep.seed = opt.seed;
  if (obs::recording_active()) obs::recorder_reset_all();

  // Hub topology: every client is an actor on one node, so all the
  // pipelined sessions below share a small reactor pool instead of one
  // OS thread per client.
  net::cluster_options copt;
  copt.client_hub = true;
  copt.hub_reactors = 2;
  store::tcp_store ts(make_store_cfg(opt), net::node_options::from_env(),
                      copt);
  ts.start();
  const auto keys = make_keys(opt.num_keys);

  // Pre-generate every client's op sequence from the SAME per-role rng
  // streams the thread-per-client harness used, so a seed replays the
  // identical key/value sequences whatever the driver-thread count is.
  struct script {
    std::unique_ptr<store::async_session> ses;
    std::vector<store::store_op> ops;
    std::size_t next{0};
  };
  std::vector<script> scripts;
  scripts.reserve(opt.W + opt.R);
  for (std::uint32_t j = 0; j < opt.W; ++j) {
    rng tr(opt.seed ^ (0x9e3779b97f4a7c15ull * (j + 1)));
    script sc;
    sc.ses = ts.open_session(writer_id(j), opt.pipeline_depth);
    sc.ops.reserve(opt.puts_per_writer);
    for (std::uint32_t n = 1; n <= opt.puts_per_writer; ++n) {
      sc.ops.push_back(store::store_op{
          keys[tr.below(keys.size())], /*is_put=*/true,
          "w" + std::to_string(j) + ":" + std::to_string(n)});
    }
    scripts.push_back(std::move(sc));
  }
  for (std::uint32_t i = 0; i < opt.R; ++i) {
    rng tr(opt.seed ^ (0xbf58476d1ce4e5b9ull * (i + 1)));
    script sc;
    sc.ses = ts.open_session(reader_id(i), opt.pipeline_depth);
    sc.ops.reserve(opt.gets_per_reader);
    for (std::uint32_t n = 0; n < opt.gets_per_reader; ++n) {
      sc.ops.push_back(store::store_op{keys[tr.below(keys.size())],
                                       /*is_put=*/false, {}});
    }
    scripts.push_back(std::move(sc));
  }

  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> failures{0};
  const std::uint64_t total =
      static_cast<std::uint64_t>(opt.W) * opt.puts_per_writer +
      static_cast<std::uint64_t>(opt.R) * opt.gets_per_reader;
  const bool midway_actions = opt.crash_servers > 0 ||
                              opt.partition_servers > 0 || opt.reshard;
  const std::uint64_t trigger = total / 3;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);

  // Driver pool: each thread owns a disjoint slice of the sessions and
  // event-loops them -- admit ops while the window accepts, pump
  // completions, drain at the end. Each session stays single-threaded
  // (the front-end's contract); only the slicing is parallel.
  const std::uint32_t drivers = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(opt.driver_threads,
                                 static_cast<std::uint32_t>(scripts.size())));
  std::vector<std::thread> threads;
  threads.reserve(drivers);
  for (std::uint32_t d = 0; d < drivers; ++d) {
    threads.emplace_back([&, d] {
      for (;;) {
        bool all_done = true;
        bool progress = false;
        for (std::size_t s = d; s < scripts.size(); s += drivers) {
          auto& sc = scripts[s];
          sc.ses->pump();
          (void)sc.ses->take_results();
          while (sc.next < sc.ops.size()) {
            const auto& op = sc.ops[sc.next];
            const auto st = op.is_put ? sc.ses->try_put(op.key, op.val)
                                      : sc.ses->try_get(op.key);
            if (st != store::submit_status::submitted) break;
            ++sc.next;
            attempts.fetch_add(1, std::memory_order_relaxed);
            progress = true;
          }
          if (sc.next < sc.ops.size() || sc.ses->in_flight() > 0) {
            all_done = false;
          }
        }
        if (all_done) break;
        if (std::chrono::steady_clock::now() > deadline) {
          // Abandon what never got submitted; drain below settles the
          // rest and counts what never completed.
          for (std::size_t s = d; s < scripts.size(); s += drivers) {
            auto& sc = scripts[s];
            failures.fetch_add(sc.ops.size() - sc.next,
                               std::memory_order_relaxed);
            sc.next = sc.ops.size();
          }
          break;
        }
        if (!progress) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      for (std::size_t s = d; s < scripts.size(); s += drivers) {
        auto& sc = scripts[s];
        if (!sc.ses->drain(std::chrono::seconds(10))) {
          failures.fetch_add(sc.ses->in_flight(),
                             std::memory_order_relaxed);
        }
        (void)sc.ses->take_results();
      }
    });
  }

  if (midway_actions) {
    while (attempts.load(std::memory_order_relaxed) < trigger &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Partition first (it takes the LOW end of the index range; crashes
    // take the high end, so combined runs exercise disjoint sets).
    for (std::uint32_t i = 0; i < opt.partition_servers; ++i) {
      ts.cluster().server(i).set_fault_all(net::conn_fault::pause);
    }
    for (std::uint32_t i = 0; i < opt.crash_servers; ++i) {
      ts.cluster().server(opt.S - 1 - i).stop();
    }
    if (opt.reshard) {
      reconfig::tcp_control ctl(ts);
      reconfig::coordinator coord(ctl);
      if (!coord.start(ts.proto().shards(), make_reshard_plan(opt))) {
        rep.check = {false, "reshard failed to start: " + coord.error()};
      } else {
        while (!coord.done() &&
               std::chrono::steady_clock::now() < deadline) {
          coord.step();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (!coord.done()) {
          rep.check = {false, "reshard did not complete within deadline"};
        }
      }
    }
    if (opt.partition_servers > 0) {
      // Heal two thirds of the way in: queued bytes flush on both sides
      // and the stalled ops complete against the full quorum again.
      while (attempts.load(std::memory_order_relaxed) < 2 * trigger &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (std::uint32_t i = 0; i < opt.partition_servers; ++i) {
        ts.cluster().server(i).set_fault_all(net::conn_fault::none);
      }
    }
    if (opt.crash_servers > 0 && opt.restart_crashed) {
      // Restart two thirds of the way in, on the original ports, with
      // snapshot + op-log replay when persist_dir is set; clients
      // reconnect lazily and the final third of the workload verifies
      // the rejoined servers' state through the checker.
      while (attempts.load(std::memory_order_relaxed) < 2 * trigger &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (std::uint32_t i = 0; i < opt.crash_servers; ++i) {
        ts.restart_server(opt.S - 1 - i);
      }
    }
  }

  for (auto& th : threads) th.join();
  rep.op_failures = failures.load();
  rep.final_epoch = ts.proto().maps()->epoch();
  const auto hist = ts.gather();
  fill_counts(rep, hist);
  if (rep.check.ok) verify_into(rep, opt, hist);
  ts.stop();
  return rep;
}

}  // namespace fastreg::benchutil
