// E11 -- the E1/E8 shape on a real network stack: localhost TCP with one
// reactor thread per server and one per client (each client an actor on
// a reactor of its own in the cluster's client node). Wall-clock
// microseconds; absolute numbers are machine-dependent, the ratios are
// the reproduction target:
// abd read ~= 2x fast read; maxmin in between; write ~= fast read.
//
// Each protocol runs as a one-shard store (store::tcp_store with
// shard_protocols = {proto}), the one TCP client path: the writer and
// the reader each drive one depth-1 session on one key, one op at a
// time. Rounds per op come from the store's histories.
//
// E11 is a check as well as a table: it exits non-zero when a row's
// history is not atomic, or when its mean rd_rounds/wr_rounds differ
// from the protocol's read_rounds()/write_rounds().
//
// A second table prices each row's ops in reactor syscalls: the
// net::node registry rows (epoll_wait returns, socket reads, sendmsg
// calls, eventfd wakes from the reactor's own thread or another one,
// epoll_ctl calls) summed over every node of the deployment during the
// timed ops, divided by the op count.
//
// `--trace-out FILE` skips the latency table and instead runs a short
// flight-recorded pass per protocol, merges every node's recorder ring
// into one causally-ordered timeline, and writes it as Chrome
// trace-event JSON (load in about:tracing or Perfetto). CI smoke-runs
// this and validates the output with `trace_merge --validate`.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "benchutil/stats.h"
#include "benchutil/table.h"
#include "crypto/sig.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/timeline.h"
#include "registers/registry.h"
#include "store/tcp_store.h"

using namespace fastreg;
using namespace fastreg::benchutil;

namespace {

/// The one key every op touches: a one-shard store holding one register.
constexpr const char* k_key = "reg";

/// A one-shard store running `proto` with S servers, t crash failures,
/// one writer and one reader.
store::store_config one_register(const std::string& proto, std::uint32_t S,
                                 std::uint32_t t, const std::string& sigs) {
  store::store_config cfg;
  cfg.base.servers = S;
  cfg.base.t_failures = t;
  cfg.base.readers = 1;
  if (!sigs.empty()) cfg.base.sigs = crypto::make_signature_scheme(sigs);
  cfg.shard_protocols = {proto};
  return cfg;
}

/// The writer's and the reader's depth-1 sessions, reused for every op:
/// each call submits one op and drains it.
struct register_clients {
  std::unique_ptr<store::async_session> w, r;

  explicit register_clients(store::tcp_store& ts)
      : w(ts.open_session(writer_id(0), 1)),
        r(ts.open_session(reader_id(0), 1)) {}

  bool write(value_t v) {
    return w->put(k_key, std::move(v)) && w->drain() &&
           !w->take_results().empty();
  }
  bool read() {
    return r->get(k_key) && r->drain() && !r->take_results().empty();
  }
};

/// One column of the syscall table: a registry series, narrowed to the
/// rows carrying `label` when it is not empty.
struct syscall_column {
  const char* title;
  const char* series;
  const char* label;
};

constexpr syscall_column k_syscall_columns[] = {
    {"frames", "fastreg_net_frames_out_total", ""},
    {"sendmsg", "fastreg_net_writev_calls_total", ""},
    {"read", "fastreg_net_socket_reads_total", ""},
    {"epoll_wait", "fastreg_net_epoll_waits_total", ""},
    {"wake_own", "fastreg_net_eventfd_wakes_total", "from=\"own\""},
    {"wake_other", "fastreg_net_eventfd_wakes_total", "from=\"other\""},
    {"epoll_ctl", "fastreg_net_epoll_ctls_total", ""},
};

struct tcp_result {
  stats read_us;
  stats write_us;
  stats read_rounds;
  stats write_rounds;
  bool atomic{false};
  /// Per k_syscall_columns entry: the count per timed op.
  std::vector<double> syscalls_per_op;
};

tcp_result run_tcp(const std::string& proto, std::uint32_t S, std::uint32_t t,
                   const std::string& sigs, int ops) {
  store::tcp_store ts(one_register(proto, S, t, sigs));
  ts.start();
  tcp_result out;
  {
    register_clients c(ts);
    // Warmup: establish connections.
    (void)c.write("warmup");
    (void)c.read();
    obs::interval_scrape scrape;
    for (int k = 0; k < ops; ++k) {
      auto t0 = std::chrono::steady_clock::now();
      const bool ok = c.write("v" + std::to_string(k + 1));
      auto t1 = std::chrono::steady_clock::now();
      const bool rd = c.read();
      auto t2 = std::chrono::steady_clock::now();
      if (!ok || !rd) continue;
      out.write_us.add(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      out.read_us.add(
          std::chrono::duration<double, std::micro>(t2 - t1).count());
    }
    const auto rows = scrape.take();
    for (const auto& col : k_syscall_columns) {
      out.syscalls_per_op.push_back(
          obs::series_sum(rows, col.series, col.label) / (2.0 * ops));
    }
  }
  // Rounds per op from the store's history (the warmup pair included: an
  // op's round count does not depend on connection setup).
  const auto hists = ts.gather();
  for (const auto& [key, h] : hists.all()) {
    for (const auto& op : h.ops()) {
      if (!op.response_time) continue;
      (op.is_write ? out.write_rounds : out.read_rounds).add(op.rounds);
    }
  }
  out.atomic = hists.verify().ok;
  ts.stop();
  return out;
}

/// --trace-out: a few flight-recorded round trips per protocol, merged
/// across every node's ring into catapult JSON.
int run_trace_out(const char* out_path) {
  std::printf("E11 --trace-out: recording 10 round trips per protocol\n");
  obs::set_recording(true);
  obs::recorder_reset_all();
  for (const char* proto : {"fast_swmr", "abd", "maxmin"}) {
    store::tcp_store ts(one_register(proto, 5, 1, ""));
    ts.start();
    {
      register_clients c(ts);
      for (int k = 0; k < 10; ++k) {
        (void)c.write(std::string(proto) + ":" + std::to_string(k));
        (void)c.read();
      }
    }
    ts.stop();
  }
  obs::set_recording(false);
  std::vector<std::vector<obs::timeline_event>> per_node;
  for (const auto& [node, dump] : obs::recorder_dump_all()) {
    if (const auto err = obs::validate_recorder_dump(dump); !err.empty()) {
      std::fprintf(stderr, "E11: dump of %s invalid: %s\n", node.c_str(),
                   err.c_str());
      return 1;
    }
    per_node.push_back(obs::parse_recorder_dump(dump));
  }
  const auto merged = obs::merge_events(std::move(per_node));
  if (const auto err = obs::validate_timeline(merged); !err.empty()) {
    std::fprintf(stderr, "E11: causal check failed: %s\n", err.c_str());
    return 1;
  }
  const auto json = obs::render_catapult(merged);
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "E11: cannot write %s\n", out_path);
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("E11: wrote %s (%zu events from %zu nodes)\n", out_path,
              merged.size(), obs::recorder_dump_all().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 && std::strcmp(argv[1], "--trace-out") == 0) {
    return run_trace_out(argv[2]);
  }
  std::printf("E11: latency over real TCP sockets (localhost, "
              "microseconds)\n\n");
  table t({"proto", "S", "sigs", "read_p50_us", "read_p99_us",
           "write_p50_us", "read/write", "rd_rounds", "wr_rounds",
           "atomic"});
  const int ops = 300;
  struct row {
    const char* proto;
    std::uint32_t S, t;
    const char* sigs;
  };
  std::vector<std::string> sys_cols = {"proto", "sigs"};
  for (const auto& col : k_syscall_columns) sys_cols.push_back(col.title);
  table sys(sys_cols);
  std::vector<std::string> failures;
  for (const auto c :
       {row{"fast_swmr", 5, 1, ""}, row{"abd", 5, 1, ""},
        row{"maxmin", 5, 1, ""}, row{"fast_bft", 7, 1, "oracle"},
        row{"fast_bft", 7, 1, "rsa"}}) {
    const auto res = run_tcp(c.proto, c.S, c.t, c.sigs,
                             std::string(c.sigs) == "rsa" ? 60 : ops);
    const std::string sigs = std::string(c.sigs).empty() ? "-" : c.sigs;
    const std::string name = std::string(c.proto) + " sigs=" + sigs;
    if (!res.atomic) failures.push_back(name + ": history not atomic");
    const auto theory = make_protocol(c.proto);
    if (res.read_rounds.mean() != theory->read_rounds() ||
        res.write_rounds.mean() != theory->write_rounds()) {
      failures.push_back(name + ": rounds " + fmt(res.read_rounds.mean()) +
                         "/" + fmt(res.write_rounds.mean()) +
                         ", the protocol declares " +
                         std::to_string(theory->read_rounds()) + "/" +
                         std::to_string(theory->write_rounds()));
    }
    const double ratio =
        res.write_us.p50() > 0 ? res.read_us.p50() / res.write_us.p50() : 0;
    t.add_row({c.proto, std::to_string(c.S), sigs, fmt(res.read_us.p50()),
               fmt(res.read_us.p99()), fmt(res.write_us.p50()), fmt(ratio, 2),
               fmt(res.read_rounds.mean()), fmt(res.write_rounds.mean()),
               res.atomic ? "yes" : "NO"});
    std::vector<std::string> sys_row = {c.proto, sigs};
    for (const double v : res.syscalls_per_op) sys_row.push_back(fmt(v, 2));
    sys.add_row(sys_row);
  }
  t.print();
  std::printf("\nexpected shape: fast_swmr read/write ~= 1.0 (both one "
              "RTT); abd ~= 2.0; maxmin between; RSA signing adds a "
              "visible constant to fast_bft writes and reads. rd/wr_rounds "
              "come from the op histories: fast_swmr and maxmin reads "
              "1.0, abd reads 2.0, all writes 1.0. Each client has a "
              "reactor, and so a connection per server, of its own: a "
              "reactor pass flushes each connection it wrote to once, "
              "but a client's pass carries one frame per server and a "
              "server's pass answers one frame per connection, so a round "
              "still costs one sendmsg per frame.\n");
  std::printf("\nreactor syscalls per op (one write or one read; every "
              "node of the deployment, timed ops only):\n\n");
  sys.print();
  for (const auto& f : failures) {
    std::fprintf(stderr, "E11 FAILED: %s\n", f.c_str());
  }
  return failures.empty() ? 0 : 1;
}
