// One run end to end: the untraced pass (and, for --trace, the traced
// pass), every metric derived from them, and the JSON / text renderings.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "net/node.h"
#include "obs/timeline.h"
#include "phase.h"
#include "stats.h"

namespace fastreg::bench {
namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The simulator's exact counters, as text: identical across runs of
/// one seed.
std::string digest_text(const plan& p, const phase& a) {
  std::string s = "workload=" + p.w.name + " seed=" + std::to_string(p.seed) +
                  " gets=" + std::to_string(a.get_lat.size()) +
                  " puts=" + std::to_string(a.put_lat.size());
  s += " get_p50=" + fmt("%.4f", percentile(a.get_lat, 50));
  s += " get_p99=" + fmt("%.4f", percentile(a.get_lat, 99));
  s += " put_p50=" + fmt("%.4f", percentile(a.put_lat, 50));
  s += " put_p99=" + fmt("%.4f", percentile(a.put_lat, 99));
  s += " msgs=" + std::to_string(a.msgs);
  s += " envelopes=" + std::to_string(a.envelopes);
  s += " ticks=" + std::to_string(a.ticks);
  s += " read_rounds=" + fmt("%.6f", a.get_rounds);
  s += " write_rounds=" + fmt("%.6f", a.put_rounds);
  return s;
}

/// Completed ops per second: the median over the measured window's
/// slices (phase.h).
double ops_per_s(const phase& a) {
  const auto& s = a.slice_ns;
  if (s.size() < 2) return ratio(static_cast<double>(a.completed), a.wall_s);
  const double per_slice =
      static_cast<double>(a.completed) / static_cast<double>(s.size() - 1);
  std::vector<double> rates;
  for (std::size_t k = 1; k < s.size(); ++k) {
    if (s[k] > s[k - 1]) {
      rates.push_back(per_slice * 1e9 / static_cast<double>(s[k] - s[k - 1]));
    }
  }
  return median(std::move(rates));
}

void add_untraced_metrics(const plan& p, const phase& a,
                          std::map<std::string, metric>& m) {
  const double ops = static_cast<double>(a.completed);
  const double puts = static_cast<double>(a.put_lat.size());
  const double us = a.units_per_us;
  const auto& reg = a.registry;
  auto put = [&](const std::string& name, double v, const char* unit) {
    m[name] = {std::isfinite(v) ? v : 0, unit};
  };
  // End to end.
  put("setup_s", median(a.setup_s), "s");
  put("ops_per_s", ops_per_s(a), "ops/s");
  put("get_p50_us", percentile(a.get_lat, 50) / us, "us");
  put("put_p50_us", percentile(a.put_lat, 50) / us, "us");
  // store (client and server)
  put("store.key_busy_per_op",
      ratio(sum_series(reg,
                       "fastreg_store_admission_total{result=\"key_busy\"}"),
            ops),
      "pushbacks/op");
  put("store.server_msgs_per_op",
      ratio(sum_series(reg, "fastreg_store_ops_total"), ops), "msgs/op");
  put("store.serve_ns.mean",
      ratio(sum_series(reg, "fastreg_store_serve_ns_sum"),
            sum_series(reg, "fastreg_store_serve_ns_count")),
      "ns");
  // registers
  put("registers.read_rounds.mean", a.get_rounds, "rounds");
  put("registers.write_rounds.mean", a.put_rounds, "rounds");
  // net
  const double frames = sum_series(reg, "fastreg_net_frames_out_total");
  const double writevs = sum_series(reg, "fastreg_net_writev_calls_total");
  put("net.frames_out_per_op", ratio(frames, ops), "frames/op");
  put("net.bytes_out_per_op",
      ratio(sum_series(reg, "fastreg_net_bytes_out_total"), ops), "B/op");
  put("net.writev_per_op", ratio(writevs, ops), "calls/op");
  put("net.frames_per_writev", ratio(frames, writevs), "frames/call");
  put("net.reactor_tasks_per_op",
      ratio(sum_series(reg, "fastreg_net_reactor_tasks_total"), ops),
      "tasks/op");
  put("net.conn_resets", sum_series(reg, "fastreg_net_conn_resets_total"),
      "count");
  put("net.flush_ns.mean",
      ratio(sum_series(reg, "fastreg_net_flush_ns_sum"),
            sum_series(reg, "fastreg_net_flush_ns_count")),
      "ns");
  // persist
  put("persist.log_bytes_per_put",
      ratio(sum_series(reg, "fastreg_persist_log_bytes_total"), puts),
      "B/put");
  put("persist.records_per_put",
      ratio(sum_series(reg, "fastreg_persist_log_records_total"), puts),
      "records/put");
  put("persist.fsyncs_per_s",
      ratio(sum_series(reg, "fastreg_persist_fsyncs_total"), a.wall_s),
      "1/s");
  put("persist.snapshots_per_kput",
      1000 * ratio(sum_series(reg, "fastreg_persist_snapshots_total"), puts),
      "snaps/kput");
  put("persist.replay_ms", a.replay_ms, "ms");
  put("persist.rejoin_ms", a.rejoin_ms, "ms");
  // sim
  const bool sim = p.w.via == transport::sim;
  put("sim.msgs_per_op", ratio(static_cast<double>(a.msgs), ops), "msgs/op");
  put("sim.envelopes_per_op", ratio(static_cast<double>(a.envelopes), ops),
      "envelopes/op");
  put("sim.ops_per_ktick",
      sim ? 1000 * ratio(ops, static_cast<double>(a.ticks)) : 0,
      "ops/ktick");
  // checker, process
  put("checker.verify_s", a.verify_s, "s");
  put("proc.cpu_us_per_op", 1e6 * ratio(a.cpu_s, ops), "us");
  put("proc.ctx_switches_per_op", ratio(a.ctx_switches, ops), "switches/op");
  // Ungated tails.
  put("tail.get_p99_us", tail_percentile(a.get_lat, 99) / us, "us");
  put("tail.put_p99_us", tail_percentile(a.put_lat, 99) / us, "us");
  put("tail.get_p999_us", tail_percentile(a.get_lat, 99.9) / us, "us");
}

void add_traced_metrics(const phase& a, const phase& b,
                        std::map<std::string, metric>& m) {
  const breakdown& l = *b.layers;
  const double us = b.units_per_us;
  static const char* const share_names[k_num_segments] = {
      "store.submit_share",      "net.wire_out_share",
      "store.server_queue_share", "store.serve_share",
      "net.wire_back_share",     "registers.quorum_wait_share",
      "store.harvest_share"};
  for (std::size_t s = 0; s < k_num_segments; ++s) {
    m[share_names[s]] = {ratio(l.segment[s], l.latency), "ratio"};
    m[std::string("layer.") + k_segments[s] + "_us.p50"] = {
        l.segment_p50[s] / us, "us"};
  }
  m["trace.breakdown_residual_frac"] = {l.residual_frac_p50, "ratio"};
  m["trace.whole_ops"] = {static_cast<double>(l.ops_whole), "ops"};
  m["registers.round2_share"] = {ratio(l.get_after_round1, l.get_latency),
                                 "ratio"};
  m["net.wire_us.p50"] = {l.wire_p50 / us, "us"};
  m["registers.quorum_wait_us.p50"] = {l.quorum_wait_p50 / us, "us"};
  const double ops_a = ops_per_s(a);
  m["trace.overhead_frac"] = {ops_a > 0 ? 1 - ops_per_s(b) / ops_a : 0,
                              "ratio"};
  std::vector<std::uint64_t> submit;
  for (const auto& s : b.spans) {
    if (std::string_view(s.name) == "submit") {
      submit.push_back(s.end_ns - s.start_ns);
    }
  }
  std::sort(submit.begin(), submit.end());
  m["store.submit_us.p50"] = {percentile(submit, 50) / 1e3, "us"};
  m["store.submit_us.p99"] = {tail_percentile(submit, 99) / 1e3, "us"};
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

std::string metrics_json(const std::map<std::string, metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : m) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(v.value) +
           ", \"unit\": " + json_string(v.unit) + "}";
  }
  return out + "\n  }";
}

void write_trace_artifacts(const run_result& r, const phase& b,
                           const std::string& dir) {
  const std::string spans = to_catapult(b.spans);
  if (const auto err = obs::validate_catapult(spans); !err.empty()) {
    throw std::runtime_error("spans.json is not valid catapult JSON: " + err);
  }
  write_file(dir + "/spans.json", spans);
  std::string layers = "{\n  \"workload\": " + json_string(r.workload) +
                       ",\n  \"spans\": [";
  bool first = true;
  for (const auto& s : summarize(b.spans)) {
    layers += first ? "\n    " : ",\n    ";
    first = false;
    layers += "{\"name\": " + json_string(s.name) +
              ", \"count\": " + json_number(static_cast<double>(s.count)) +
              ", \"total_ms\": " + json_number(s.total_ms) +
              ", \"self_ms\": " + json_number(s.self_ms) +
              ", \"p50_us\": " + json_number(s.p50_us) + "}";
  }
  layers += "\n  ],\n  \"metrics\": " + metrics_json(r.metrics) + "\n}\n";
  write_file(dir + "/layers.json", layers);
}

}  // namespace

void size_recorder_rings() {
  setenv("FASTREG_OBS_RING", std::to_string(k_trace_ring).c_str(), 1);
}

std::vector<std::string> pinned_config(const plan& p, bool traced) {
  const workload& w = p.w;
  std::vector<std::string> c = {
      "workload=" + w.name,
      "transport=" + std::string(w.via == transport::sim ? "sim" : "tcp"),
      "protocol=" + w.protocol,
      "S=" + std::to_string(k_servers),
      "t=" + std::to_string(k_faults),
      "R=" + std::to_string(k_readers),
      "W=1",
      "shards=" + std::to_string(k_shards),
      "keys=" + std::to_string(k_keys),
      "dist=" + std::string(w.dist == key_dist::zipf
                                ? "zipf(" + fmt("%.2f", k_zipf_s) + ")"
                                : "uniform"),
      "value_bytes=" + std::to_string(w.value_bytes),
      "depth=" + std::to_string(w.depth),
      "puts=" + std::to_string(p.puts),
      "gets_per_reader=" + std::to_string(p.gets_per_reader),
      "gets_per_put=" + std::to_string(w.gets_per_put),
      "writer_paced=" + std::to_string(w.paced ? 1 : 0),
      "seed=" + std::to_string(p.seed),
      "seconds=" + fmt("%g", p.seconds),
      "setups=" + std::to_string(w.via == transport::sim ? k_setups_sim
                                                         : k_setups_tcp),
  };
  if (w.via == transport::sim) {
    c.push_back("delay=U[" + std::to_string(k_delay_lo) + "," +
                std::to_string(k_delay_hi) + "] ticks");
  } else {
    const net::node_options n{};
    c.push_back("batch_window_us=" + std::to_string(n.batch_window_us));
    c.push_back("adaptive=" + std::to_string(n.adaptive ? 1 : 0));
    c.push_back("flush_bytes=" + std::to_string(n.flush_bytes));
    c.push_back("node_reactors=" + std::to_string(n.reactors));
    c.push_back("client_hub=1");
    c.push_back("hub_reactors=1");
    c.push_back("server_reactors=1");
    c.push_back("sessions=3 (1 writer, 2 readers), one thread each");
  }
  c.push_back(w.persist ? "persist=on fsync=interval fsync_interval_ms=25 "
                          "snapshot_every=512 dir=$TMPDIR/fastreg-bench-*"
                        : "persist=off");
  if (w.restart) {
    c.push_back("faults=stop s5 at 1/3 of ops, restart at 2/3");
  }
  if (traced) {
    c.push_back("recorder_ring_slots=" + std::to_string(k_trace_ring));
  }
  return c;
}

run_result run(const plan& p, const std::string& trace_dir) {
  const bool traced = !trace_dir.empty();
  auto drive = [&](bool t) {
    return p.w.via == transport::sim ? run_sim(p, t, trace_dir)
                                     : run_tcp(p, t, trace_dir);
  };
  const phase a = drive(false);
  std::optional<phase> b;
  if (traced) b = drive(true);

  run_result r;
  r.workload = p.w.name;
  r.seed = p.seed;
  r.seconds = p.seconds;
  r.traced = traced;
  r.config = pinned_config(p, traced);
  r.get_samples = a.get_lat.size();
  r.put_samples = a.put_lat.size();
  r.attempted = a.attempted;
  r.failed = a.attempted - std::min(a.attempted, a.completed);
  r.correct = a.verified && r.failed == 0;
  r.verdict = a.verdict;
  if (b) {
    r.attempted += b->attempted;
    const std::uint64_t bf =
        b->attempted - std::min(b->attempted, b->completed);
    r.failed += bf;
    r.correct = r.correct && b->verified && bf == 0;
    if (!b->verified) r.verdict = "traced pass: " + b->verdict;
  }
  if (r.failed > 0) {
    r.verdict += "; " + std::to_string(r.failed) + " ops failed or timed out";
  }
  if (p.w.via == transport::sim) {
    r.digest_text = digest_text(p, a);
    char hex[20];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a(r.digest_text)));
    r.digest = hex;
    if (b && digest_text(p, *b) != r.digest_text) {
      r.correct = false;
      r.verdict += "; the traced pass changed the simulator's exact counters";
    }
  }
  add_untraced_metrics(p, a, r.metrics);
  if (b) add_traced_metrics(a, *b, r.metrics);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.metrics["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024, "MiB"};
  if (b) write_trace_artifacts(r, *b, trace_dir);
  return r;
}

std::string to_json(const run_result& r) {
  std::string out = "{\n";
  out += "  \"workload\": " + json_string(r.workload) + ",\n";
  out += "  \"seed\": " + json_number(static_cast<double>(r.seed)) + ",\n";
  out += "  \"seconds\": " + json_number(r.seconds) + ",\n";
  out += "  \"traced\": " + std::string(r.traced ? "true" : "false") + ",\n";
  out += "  \"correct\": " + std::string(r.correct ? "true" : "false") + ",\n";
  out += "  \"verdict\": " + json_string(r.verdict) + ",\n";
  out += "  \"attempted\": " + std::to_string(r.attempted) + ",\n";
  out += "  \"failed\": " + std::to_string(r.failed) + ",\n";
  out += "  \"samples\": {\"get\": " + std::to_string(r.get_samples) +
         ", \"put\": " + std::to_string(r.put_samples) + "},\n";
  out += "  \"config\": [";
  for (std::size_t i = 0; i < r.config.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(r.config[i]);
  }
  out += "],\n";
  out += "  \"digest\": " + json_string(r.digest) + ",\n";
  out += "  \"digest_text\": " + json_string(r.digest_text) + ",\n";
  out += "  \"metrics\": " + metrics_json(r.metrics) + "\n}\n";
  return out;
}

std::string to_text(const run_result& r) {
  std::string out = "result " + r.workload + ": " +
                    (r.correct ? "correct" : "INCORRECT") + " (" + r.verdict +
                    "), attempted " + std::to_string(r.attempted) +
                    ", failed " + std::to_string(r.failed) + ", samples get " +
                    std::to_string(r.get_samples) + " put " +
                    std::to_string(r.put_samples) + "\n";
  for (const auto& [name, v] : r.metrics) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-34s %16.6f %s\n", name.c_str(),
                  v.value, v.unit.c_str());
    out += buf;
  }
  if (!r.digest.empty()) {
    out += "digest " + r.digest + " " + r.digest_text + "\n";
  }
  return out;
}

}  // namespace fastreg::bench
