// Simulator workloads: the same store on the timed simulator, one
// session per client through sim_frontend. Each client submits a batch
// of `depth` distinct keys in one step and waits for the whole batch
// before the next (the store's batched-envelope shape).
#include <memory>
#include <stdexcept>

#include "obs/recorder.h"
#include "phase.h"
#include "sim/world.h"
#include "store/async_client.h"
#include "store/sim_store.h"

namespace fastreg::bench {
namespace {

/// Steps the world until `s` has nothing in flight.
void settle(store::sim_store& st, store::async_session& s, rng& r,
            sim::delay_model& delays) {
  s.pump();
  while (s.in_flight() > 0) {
    if (st.run_timed(r, delays, 1) == 0) {
      throw std::runtime_error("simulator wedged with ops in flight");
    }
    s.pump();
  }
}

/// One client's batched closed loop over its key script.
struct client_loop {
  std::unique_ptr<store::async_session> session;
  std::vector<std::uint32_t> keys;
  std::uint64_t next{0};
};

}  // namespace

phase run_sim(const plan& p, bool traced, const std::string& trace_dir) {
  phase out;
  out.units_per_us = 1;
  span_log log;
  span_lane* lane = traced ? log.add_lane() : nullptr;
  scoped_span run_span(lane, "run", 0);
  const std::uint64_t root = run_span.id();
  sim::uniform_delay delays(k_delay_lo, k_delay_hi);
  const std::uint32_t depth = p.w.depth;

  std::unique_ptr<store::sim_store> st;
  std::unique_ptr<rng> r;
  std::unique_ptr<store::sim_frontend> fe;
  std::uint64_t seq = 0;
  for (int i = 0; i < k_setups_sim; ++i) {
    fe.reset();
    st.reset();
    seq = 0;
    const std::uint64_t t0 = now_ns();
    scoped_span s(lane, "setup", root);
    st = std::make_unique<store::sim_store>(base_store_config(p));
    r = std::make_unique<rng>(p.seed);
    fe = std::make_unique<store::sim_frontend>(*st, *r);
    scoped_span pre(lane, "preload", s.id());
    auto w = fe->open_session(writer_id(0), depth);
    for (std::uint32_t k = 0; k < k_keys; k += depth) {
      for (std::uint32_t j = k; j < std::min(k + depth, k_keys); ++j) {
        if (w->try_put(key_name(j), make_value(++seq, p.w.value_bytes)) !=
            store::submit_status::submitted) {
          throw std::runtime_error("preload put refused");
        }
      }
      settle(*st, *w, *r, delays);
    }
    pre.end();
    s.end();
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  std::vector<client_loop> loops(1 + k_readers);
  loops[0].session = fe->open_session(writer_id(0), depth);
  loops[0].keys = make_script(p.w, p.seed, 0, p.puts, depth);
  for (std::uint32_t i = 0; i < k_readers; ++i) {
    loops[1 + i].session = fe->open_session(reader_id(i), depth);
    loops[1 + i].keys =
        make_script(p.w, p.seed, 1 + i, p.gets_per_reader, depth);
  }
  out.attempted = p.total_ops();
  const std::uint64_t seq0 = seq;
  const std::uint64_t g = p.w.gets_per_put;

  sim::world& world = st->world();
  obs::interval_scrape scrape;
  const usage u0 = process_usage();
  if (traced) {
    obs::recorder_reset_all();
    obs::set_recording(true);
  }
  scoped_span measure(lane, "measure", root);
  const std::uint64_t tick0 = world.now();
  const std::uint64_t msgs0 = world.messages_sent();
  const std::uint64_t env0 = world.envelopes_sent();
  const std::uint64_t t_start = now_ns();
  std::uint64_t gets_submitted = 0;
  std::uint64_t op_base[1 + k_readers] = {0};
  for (std::uint32_t i = 1; i < loops.size(); ++i) {
    op_base[i] = op_base[i - 1] + loops[i - 1].keys.size();
  }
  out.slice_ns = {t_start};
  std::uint64_t harvested = 0;
  auto harvest = [&](client_loop& d) {
    d.session->pump();
    harvested += d.session->take_results().size();
    while (out.slice_ns.size() <= k_slices &&
           harvested >= out.slice_ns.size() * out.attempted / k_slices) {
      out.slice_ns.push_back(now_ns());
    }
  };
  for (;;) {
    bool invoked = false;
    for (std::uint32_t c = 0; c < loops.size(); ++c) {
      client_loop& d = loops[c];
      harvest(d);
      if (d.next == d.keys.size() || d.session->in_flight() != 0) continue;
      const bool is_put = c == 0;
      // The writer's next batch waits until g gets per put were submitted.
      if (is_put && p.w.paced && gets_submitted < g * d.next) continue;
      const std::uint64_t k =
          std::min<std::uint64_t>(depth, d.keys.size() - d.next);
      scoped_span sp(lane, "submit", measure.id(), op_base[c] + d.next + 1);
      for (std::uint64_t j = 0; j < k; ++j) {
        const std::string key = key_name(d.keys[d.next + j]);
        const auto status =
            is_put ? d.session->try_put(key, make_value(seq0 + d.next + j + 1,
                                                        p.w.value_bytes))
                   : d.session->try_get(key);
        if (status != store::submit_status::submitted) {
          throw std::runtime_error("simulator refused a batched op");
        }
      }
      d.session->pump();
      d.next += k;
      if (!is_put) gets_submitted += k;
      invoked = true;
    }
    if (world.in_transit().empty()) {
      if (invoked) continue;
      break;  // every script done and drained
    }
    st->run_timed(*r, delays, 1);
  }
  for (auto& d : loops) harvest(d);
  const std::uint64_t t_end = now_ns();
  measure.end();
  if (traced) obs::set_recording(false);
  const usage u1 = process_usage();
  out.registry = scrape.take();
  out.wall_s = static_cast<double>(t_end - t_start) / 1e9;
  out.cpu_s = u1.cpu_s - u0.cpu_s;
  out.ctx_switches = u1.ctx_switches - u0.ctx_switches;
  out.msgs = world.messages_sent() - msgs0;
  out.envelopes = world.envelopes_sent() - env0;
  out.ticks = world.now() - tick0;

  std::vector<traced_op> ops;
  collect(st->histories(), tick0, out, traced ? &ops : nullptr, lane, root);
  if (traced) {
    scoped_span s(lane, "analyze", root);
    out.layers = analyze_recorders(ops, trace_dir);
  }
  run_span.end();
  out.spans = log.all();
  return out;
}

}  // namespace fastreg::bench
