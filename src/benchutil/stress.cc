#include "benchutil/stress.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "benchutil/sim_driver.h"
#include "benchutil/tcp_driver.h"
#include "common/check.h"
#include "common/log.h"
#include "common/rng.h"
#include "crypto/sig.h"
#include "obs/recorder.h"
#include "obs/timeline.h"
#include "persist/options.h"
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

/// " 0x1f 0x2a": trace ids the way obs::render_narrative names them.
std::string trace_list(const std::vector<std::uint64_t>& traces) {
  std::ostringstream out;
  for (const auto t : traces) out << " 0x" << std::hex << t;
  return out.str();
}

/// Dumps the failing key's full history next to the test (the ctest
/// working directory), then the narratives in `events` (empty unless
/// recording) of the ops the error names, and returns the path.
std::string write_failure_dump(const stress_options& opt,
                               std::uint64_t seed,
                               const checker::history& h,
                               const std::string& failing_key,
                               const checker::check_result& check,
                               std::vector<obs::timeline_event> events) {
  const std::string path =
      opt.label + "_seed_" + std::to_string(seed) + ".history";
  std::ofstream out(path);
  out << "# fastreg stress failure\n"
      << "# label: " << opt.label << "  protocol: " << opt.protocol << "\n"
      << "# replay: FASTREG_STRESS_SEED=" << seed << "\n"
      << "# failing key: " << failing_key << "\n"
      << "# error: " << check.error << "\n"
      << "# traces:" << trace_list(check.traces) << "\n\n"
      << h.dump();
  std::erase_if(events, [&](const obs::timeline_event& e) {
    return std::ranges::find(check.traces, e.trace) == check.traces.end();
  });
  if (!events.empty()) out << "\n" << obs::render_narrative(events);
  return path;
}

/// Forensics: on a checker failure with the flight recorder on, dump
/// every node's ring next to the history dump, pre-filtered to the
/// violating key's object, add each dump's events to `per_node`, and
/// return the paths.
std::vector<std::string> write_recorder_dumps(
    const stress_options& opt, std::uint64_t seed,
    const std::string& failing_key,
    std::vector<std::vector<obs::timeline_event>>& per_node) {
  std::vector<std::string> paths;
  if (!obs::recording_active()) return paths;
  const object_id obj = store::key_object_id(failing_key);
  for (const auto& [node, dump] : obs::recorder_dump_all(obj)) {
    std::string path = opt.label + "_seed_" + std::to_string(seed) + "." +
                       node + ".recorder";
    std::ofstream out(path);
    out << dump;
    paths.push_back(std::move(path));
    per_node.push_back(obs::parse_recorder_dump(dump));
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
  std::vector<std::vector<obs::timeline_event>> per_node;
  rep.recorder_paths =
      write_recorder_dumps(opt, rep.seed, failing_key, per_node);
  const auto it = hist.all().find(failing_key);
  if (it != hist.all().end()) {
    rep.dump_path =
        write_failure_dump(opt, rep.seed, it->second, failing_key, rep.check,
                           obs::merge_events(std::move(per_node)));
  }
}

}  // namespace

std::string stress_report::describe() const {
  std::string s = "seed=" + std::to_string(seed) +
                  " (replay with FASTREG_STRESS_SEED=" +
                  std::to_string(seed) + ")";
  if (!check.ok) s += "; " + check.error;
  if (!check.traces.empty()) s += "; op traces" + trace_list(check.traces);
  if (!dump_path.empty()) s += "; failing history dumped to " + dump_path;
  if (!recorder_paths.empty()) {
    s += "; flight-recorder dumps (" +
         std::to_string(recorder_paths.size()) + " nodes, merge with "
         "tools/trace_merge): " +
         recorder_paths.front() + " ...";
  }
  if (!hist.all_complete()) s += "; some operations never completed";
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

namespace {

/// The whole of environment variable `name` as an unsigned integer
/// (decimal, 0x hex or 0 octal) of at least `min`; nullopt when it is
/// unset or empty. Anything else -- "0x1g", "abc", a sign, an overflow --
/// is warned about at every log level and also yields nullopt, so a
/// mistyped replay seed never silently runs a different one.
std::optional<std::uint64_t> env_u64(const char* name, std::uint64_t min,
                                     const char* fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v, &end, 0);
  if (std::isdigit(static_cast<unsigned char>(*v)) != 0 && *end == '\0' &&
      errno == 0 && parsed >= min) {
    return parsed;
  }
  log_write(log_level::warn, __FILE__, __LINE__,
            detail::log_format("ignoring malformed %s=\"%s\" (expected a "
                               "whole number >= %llu); %s",
                               name, v, static_cast<unsigned long long>(min),
                               fallback));
  return std::nullopt;
}

}  // namespace

std::uint64_t stress_seed_from_env() {
  if (const auto seed = env_u64("FASTREG_STRESS_SEED", 0,
                                "using a fresh random seed")) {
    return *seed;
  }
  std::random_device rd;
  std::uint64_t seed = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  seed ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return seed;
}

std::uint32_t stress_iters(std::uint32_t base) {
  // Capped at 2^32 - 1 so base * mult cannot wrap.
  const std::uint64_t mult = std::min<std::uint64_t>(
      env_u64("FASTREG_STRESS_ITERS", 1, "using 1").value_or(1),
      0xffffffffull);
  const std::uint64_t scaled = static_cast<std::uint64_t>(base) * mult;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(scaled, 0xffffffffull));
}

namespace {

// The timed schedule's link delays, each TCP client's pipeline depth and
// the TCP driver's thread count.
constexpr std::uint64_t k_delay_lo = 5;
constexpr std::uint64_t k_delay_hi = 80;
constexpr std::uint32_t k_pipeline_depth = 4;
constexpr std::uint32_t k_driver_threads = 8;

/// The run's one fault schedule, on either transport's deployment. A
/// third of the way in (by ops invoked) it isolates the low
/// partition_servers, crashes the high crash_servers -- disjoint sets in
/// a combined run -- and starts the reshard; two thirds of the way in it
/// heals the isolated servers and restarts the crashed ones. Each call
/// fires what is due and steps a live reshard once.
class fault_schedule {
 public:
  fault_schedule(store::deployment& d, const stress_options& opt,
                 stress_report& rep)
      : d_(d), opt_(opt), rep_(rep) {
    // Crashed and isolated servers are both unreachable until restarted
    // or healed, so they share one t budget: a combined count above t
    // would stall every quorum short of the two-thirds trigger.
    FASTREG_EXPECTS(opt.crash_servers + opt.partition_servers <= opt.t);
    trigger_ = (static_cast<std::uint64_t>(opt.W) * opt.puts_per_writer +
                static_cast<std::uint64_t>(opt.R) * opt.gets_per_reader) /
               3;
    using store::deployment;
    for (std::uint32_t i = 0; i < opt.partition_servers; ++i) {
      plan_.push_back({trigger_, &deployment::isolate_server, i});
      plan_.push_back({2 * trigger_, &deployment::heal_server, i});
    }
    for (std::uint32_t i = 0; i < opt.crash_servers; ++i) {
      const std::uint32_t k = opt.S - 1 - i;
      plan_.push_back({trigger_, &deployment::crash_server, k});
      // With persist_dir set a restarted server replays snapshot + op
      // log, and the last third checks its state through the checker.
      if (opt.restart_crashed) {
        plan_.push_back({2 * trigger_, &deployment::restart_server, k});
      }
    }
    std::ranges::stable_sort(plan_, {}, &due::at);
  }

  /// Fires every fault due at `invoked` ops, then steps the live reshard;
  /// true while the reshard has work left.
  bool operator()(std::uint64_t invoked) {
    for (; next_ < plan_.size() && plan_[next_].at <= invoked; ++next_) {
      (d_.*plan_[next_].f)(plan_[next_].server);
    }
    if (opt_.reshard && !reshard_started_ && invoked >= trigger_) {
      reshard_started_ = true;
      coord_.emplace(d_);
      if (!coord_->start(make_reshard_plan(opt_))) {
        // The load runs on without it; the report fails.
        rep_.check = {false, "reshard failed to start: " + coord_->error()};
        coord_.reset();
      }
    }
    const bool live = coord_.has_value() && !coord_->done();
    if (live) coord_->step();
    return live;
  }

  /// Every fault of the plan has fired.
  [[nodiscard]] bool fired() const { return next_ == plan_.size(); }

 private:
  using fault = void (store::deployment::*)(std::uint32_t);
  struct due {
    std::uint64_t at;  // ops invoked
    fault f;
    std::uint32_t server;
  };

  store::deployment& d_;
  const stress_options& opt_;
  stress_report& rep_;
  std::uint64_t trigger_{0};
  std::vector<due> plan_;  // in `at` order
  std::size_t next_{0};
  bool reshard_started_{false};
  std::optional<reconfig::coordinator> coord_;
};

}  // namespace

// ------------------------------------------------------------- simulator --

stress_report run_sim_stress(const stress_options& opt) {
  stress_report rep;
  rep.seed = opt.seed;
  // Recorders are process-global; start each run from an empty ring so a
  // failure's forensics dump holds only this run's events.
  if (obs::recording_active()) obs::recorder_reset_all();

  store::sim_store s(make_store_cfg(opt));
  fault_schedule sched(s, opt, rep);
  rng r(opt.seed);
  sim::uniform_delay delays(k_delay_lo, k_delay_hi);
  const auto keys = make_keys(opt.num_keys);
  // Depth-1 clients: each op is issued in its own invocation step.
  std::vector<sim_client> clients;
  for (std::uint32_t j = 0; j < opt.W; ++j) {
    clients.push_back(
        {writer_id(j), 1, opt.puts_per_writer,
         [&, j, seq = 0u](std::uint32_t) mutable {
           return std::vector<store::store_op>{
               {keys[r.below(keys.size())], /*is_put=*/true,
                "w" + std::to_string(j) + ":" + std::to_string(++seq)}};
         }});
  }
  for (std::uint32_t i = 0; i < opt.R; ++i) {
    clients.push_back({reader_id(i), 1, opt.gets_per_reader,
                       [&](std::uint32_t) {
                         return std::vector<store::store_op>{
                             {keys[r.below(keys.size())], false, {}}};
                       }});
  }
  drive_sim(s, r, std::move(clients), opt.timed ? &delays : nullptr,
            std::ref(sched));

  rep.final_epoch = s.proto().maps()->epoch();
  rep.hist = s.histories();
  if (rep.check.ok) verify_into(rep, opt, rep.hist);
  return rep;
}

// ------------------------------------------------------------------- TCP --

stress_report run_tcp_stress(const stress_options& opt) {
  stress_report rep;
  rep.seed = opt.seed;
  if (obs::recording_active()) obs::recorder_reset_all();

  // Every client is an actor of the cluster's client node; two shared
  // reactors carry all the pipelined sessions below instead of one
  // reactor thread per client.
  net::cluster_options copt;
  copt.client_hub = true;
  copt.hub_reactors = 2;
  store::tcp_store ts(make_store_cfg(opt), net::node_options{}, copt);
  fault_schedule sched(ts, opt, rep);
  ts.start();
  const auto keys = make_keys(opt.num_keys);

  // Per-role rng streams: a seed replays the same ops at any thread count.
  std::vector<client_script> scripts;
  for (std::uint32_t j = 0; j < opt.W; ++j) {
    rng tr(opt.seed ^ (0x9e3779b97f4a7c15ull * (j + 1)));
    scripts.push_back(make_script(
        writer_id(j), k_pipeline_depth, opt.puts_per_writer,
        [&](std::uint32_t n) {
          return store::store_op{
              keys[tr.below(keys.size())], /*is_put=*/true,
              "w" + std::to_string(j) + ":" + std::to_string(n + 1)};
        }));
  }
  for (std::uint32_t i = 0; i < opt.R; ++i) {
    rng tr(opt.seed ^ (0xbf58476d1ce4e5b9ull * (i + 1)));
    scripts.push_back(make_script(
        reader_id(i), k_pipeline_depth, opt.gets_per_reader,
        [&](std::uint32_t) {
          return store::store_op{keys[tr.below(keys.size())],
                                 /*is_put=*/false, {}};
        }));
  }
  tcp_driver drv(ts, std::move(scripts), k_driver_threads);

  // Polled at wait_submitted's cadence until the reshard is done and
  // every fault fired (or the load ended short of its trigger).
  const auto give_up = std::chrono::steady_clock::now() + k_drive_deadline;
  bool resharding = true;
  while (std::chrono::steady_clock::now() < give_up) {
    resharding = sched(drv.submitted());
    if (!resharding && (sched.fired() || !drv.running())) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (resharding) {
    rep.check = {false, "reshard did not complete within deadline"};
  }

  rep.op_failures = drv.join();
  rep.final_epoch = ts.proto().maps()->epoch();
  rep.hist = ts.gather();
  if (rep.check.ok) verify_into(rep, opt, rep.hist);
  ts.stop();
  return rep;
}

}  // namespace fastreg::benchutil
