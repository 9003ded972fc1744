// TCP workloads: five store servers and one client hub node in this
// process, over localhost sockets. Three sessions (one writer, two
// readers), each driven by its own thread.
#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "obs/recorder.h"
#include "phase.h"
#include "store/tcp_store.h"

namespace fastreg::bench {
namespace {

using namespace std::chrono_literals;

/// A fresh directory under $TMPDIR (default /tmp), removed with
/// everything in it on destruction.
class temp_dir {
 public:
  temp_dir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
        "/fastreg-bench-XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + tmpl);
    }
    path_ = tmpl;
  }
  ~temp_dir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  temp_dir(const temp_dir&) = delete;
  temp_dir& operator=(const temp_dir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One deployment. Members destroy in reverse order: the store stops
/// before its persist directory is removed.
struct deployment {
  std::unique_ptr<temp_dir> dir;
  std::unique_ptr<store::tcp_store> store;
};

store::store_config store_config_for(const plan& p, const temp_dir* dir) {
  store::store_config cfg = base_store_config(p);
  if (dir != nullptr) {
    cfg.persist.dir = dir->path();
    cfg.persist.fsync = persist::fsync_policy::interval;
    cfg.persist.fsync_interval_ms = 25;
    cfg.persist.snapshot_every = 512;
  }
  return cfg;
}

/// Admission: one non-blocking attempt (so window and key pushback are
/// counted in the admission registry), then a blocking submit.
bool submit(store::async_session& s, const std::string& key, bool put,
            const std::string& value) {
  const auto st = put ? s.try_put(key, value) : s.try_get(key);
  if (st == store::submit_status::submitted) return true;
  if (st == store::submit_status::failed) return false;
  return put ? s.put(key, value) : s.get(key);
}

std::unique_ptr<deployment> build(const plan& p, std::uint64_t& seq,
                                  span_lane* lane, std::uint64_t parent) {
  auto d = std::make_unique<deployment>();
  if (p.w.persist) d->dir = std::make_unique<temp_dir>();
  net::cluster_options copt;
  copt.server_reactors = 1;
  copt.client_hub = true;
  copt.hub_reactors = 1;
  d->store = std::make_unique<store::tcp_store>(
      store_config_for(p, d->dir.get()), net::node_options{}, copt);
  {
    scoped_span s(lane, "start", parent);
    d->store->start();
  }
  scoped_span s(lane, "preload", parent);
  {
    auto w = d->store->open_session(writer_id(0), 8);
    for (std::uint32_t k = 0; k < k_keys; ++k) {
      if (!w->put(key_name(k), make_value(++seq, p.w.value_bytes))) {
        throw std::runtime_error("preload put timed out");
      }
    }
    if (!w->drain(30s)) throw std::runtime_error("preload drain timed out");
  }
  // Connects every reader to every server before the clock starts.
  for (std::uint32_t i = 0; i < k_readers; ++i) {
    auto r = d->store->open_session(reader_id(i), 1);
    if (!r->get(key_name(0)) || !r->drain(30s)) {
      throw std::runtime_error("reader warm-up timed out");
    }
  }
  return d;
}

}  // namespace

phase run_tcp(const plan& p, bool traced, const std::string& trace_dir) {
  phase out;
  out.units_per_us = 1000;
  span_log log;
  span_lane* main_lane = traced ? log.add_lane() : nullptr;
  scoped_span run_span(main_lane, "run", 0);
  const std::uint64_t root = run_span.id();

  std::uint64_t seq = 0;
  std::unique_ptr<deployment> d;
  for (int i = 0; i < k_setups_tcp; ++i) {
    d.reset();
    seq = 0;
    const std::uint64_t t0 = now_ns();
    scoped_span s(main_lane, "setup", root);
    d = build(p, seq, main_lane, s.id());
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  store::tcp_store& ts = *d->store;

  // Scripts and sessions exist before the clock starts.
  const auto wkeys = make_script(p.w, p.seed, 0, p.puts, 1);
  std::vector<std::vector<std::uint32_t>> rkeys;
  for (std::uint32_t i = 0; i < k_readers; ++i) {
    rkeys.push_back(make_script(p.w, p.seed, 1 + i, p.gets_per_reader, 1));
  }
  auto wses = ts.open_session(writer_id(0), p.w.depth);
  std::vector<std::unique_ptr<store::async_session>> rses;
  for (std::uint32_t i = 0; i < k_readers; ++i) {
    rses.push_back(ts.open_session(reader_id(i), p.w.depth));
  }
  std::vector<span_lane*> lanes(1 + k_readers, nullptr);
  if (traced) {
    for (auto& l : lanes) l = log.add_lane();
  }
  out.attempted = p.total_ops();

  std::atomic<std::uint64_t> gets_submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint32_t> finished{0};
  const std::uint64_t g = p.w.gets_per_put;
  const std::uint64_t seq0 = seq;

  obs::interval_scrape scrape;
  const usage u0 = process_usage();
  if (traced) {
    obs::recorder_reset_all();
    obs::set_recording(true);
  }
  scoped_span measure_span(main_lane, "measure", root);
  const std::uint64_t measure = measure_span.id();
  const std::uint64_t t_start = now_ns();

  std::thread writer([&] {
    span_lane* lane = lanes[0];
    scoped_span session(lane, "session", measure);
    auto& s = *wses;
    for (std::uint64_t i = 0; i < wkeys.size(); ++i) {
      if (p.w.paced) {
        // Put i waits for i * g submitted gets.
        for (auto v = gets_submitted.load(); v < i * g;
             v = gets_submitted.load()) {
          gets_submitted.wait(v);
        }
      }
      {
        scoped_span sp(lane, "submit", session.id(), i + 1);
        (void)submit(s, key_name(wkeys[i]), true,
                     make_value(seq0 + i + 1, p.w.value_bytes));
      }
      completed += s.take_results().size();
      if (p.w.paced && gets_submitted.load() < (i + 1) * g) {
        // Idle until the next put is due: harvest this one now, so its
        // close time is not the next put's admission.
        scoped_span sp(lane, "drain", session.id());
        (void)s.drain(30s);
        completed += s.take_results().size();
      }
    }
    {
      scoped_span sp(lane, "drain", session.id());
      (void)s.drain(30s);
    }
    completed += s.take_results().size();
    session.end();
    ++finished;
  });
  std::vector<std::thread> readers;
  for (std::uint32_t r = 0; r < k_readers; ++r) {
    readers.emplace_back([&, r] {
      span_lane* lane = lanes[1 + r];
      scoped_span session(lane, "session", measure);
      auto& s = *rses[r];
      const auto& keys = rkeys[r];
      const std::uint64_t op_base = wkeys.size() + r * keys.size();
      for (std::uint64_t i = 0; i < keys.size(); ++i) {
        {
          scoped_span sp(lane, "submit", session.id(), op_base + i + 1);
          (void)submit(s, key_name(keys[i]), false, {});
        }
        if (p.w.paced && (gets_submitted.fetch_add(1) + 1) % g == 0) {
          gets_submitted.notify_one();
        }
        completed += s.take_results().size();
      }
      {
        scoped_span sp(lane, "drain", session.id());
        (void)s.drain(30s);
      }
      completed += s.take_results().size();
      session.end();
      ++finished;
    });
  }

  if (p.w.restart) {
    // Stop server 5 after a third of the ops, restart it (replaying its
    // log and snapshot) after two thirds, and time its rejoin: restart
    // -> its first served op.
    auto& reg = obs::registry::instance();
    auto& served = reg.get_counter("fastreg_store_ops_total", "node=\"s5\"");
    auto& replay =
        reg.get_histogram("fastreg_persist_replay_ns", "node=\"s5\"");
    const std::uint64_t total = p.total_ops();
    bool stopped = false;
    bool restarted = false;
    bool rejoined = false;
    std::uint64_t served_before = 0;
    std::uint64_t t_restart = 0;
    while (finished.load() < 1 + k_readers) {
      const std::uint64_t done = completed.load();
      if (!stopped && done >= total / 3) {
        ts.cluster().server(k_servers - 1).stop();
        stopped = true;
      } else if (stopped && !restarted && done >= 2 * total / 3) {
        served_before = served.value();
        const std::uint64_t replay_before = replay.sum();
        t_restart = now_ns();
        {
          scoped_span sp(main_lane, "restart", measure);
          ts.restart_server(k_servers - 1);
        }
        out.replay_ms =
            static_cast<double>(replay.sum() - replay_before) / 1e6;
        restarted = true;
      }
      if (restarted && !rejoined && served.value() > served_before) {
        out.rejoin_ms = static_cast<double>(now_ns() - t_restart) / 1e6;
        rejoined = true;
      }
      std::this_thread::sleep_for(restarted && !rejoined ? 100us : 1ms);
    }
  }
  writer.join();
  for (auto& t : readers) t.join();
  const std::uint64_t t_end = now_ns();
  measure_span.end();
  if (traced) obs::set_recording(false);
  const usage u1 = process_usage();
  out.registry = scrape.take();
  out.wall_s = static_cast<double>(t_end - t_start) / 1e9;
  out.cpu_s = u1.cpu_s - u0.cpu_s;
  out.ctx_switches = u1.ctx_switches - u0.ctx_switches;

  store::store_histories hist;
  {
    scoped_span s(main_lane, "gather", root);
    hist = ts.gather();
  }
  out.slice_ns = slices_from_history(hist, t_start);
  std::vector<traced_op> ops;
  collect(hist, t_start, out, traced ? &ops : nullptr, main_lane, root);
  if (traced) {
    scoped_span s(main_lane, "analyze", root);
    out.layers = analyze_recorders(ops, trace_dir);
  }
  run_span.end();
  out.spans = log.all();
  return out;
}

}  // namespace fastreg::bench
