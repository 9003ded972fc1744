#include "benchutil/workload.h"

#include <algorithm>
#include <cmath>

#include "benchutil/sim_driver.h"
#include "common/check.h"
#include "sim/world.h"
#include "store/sim_store.h"

namespace fastreg::benchutil {

latency_report run_measured(const protocol& proto, const system_config& cfg,
                            const workload_options& opt) {
  sim::world w(cfg);
  w.install(proto);
  rng r(opt.seed);
  sim::uniform_delay delays(opt.delay_lo, opt.delay_hi);

  FASTREG_EXPECTS(opt.crash_servers <= cfg.t());
  if (!opt.crash_midway) {
    for (std::uint32_t i = 0; i < opt.crash_servers; ++i) {
      w.crash(server_id(i));
    }
  }

  std::uint32_t writes_invoked = 0;
  std::vector<std::uint32_t> reads_invoked(cfg.R(), 0);
  bool crashed_midway = false;
  std::uint64_t guard = 0;

  auto idle = [&](const process_id& p) { return !w.client_busy(p); };
  auto anything_in_flight = [&] {
    if (w.writer(0)->write_in_progress()) return true;
    for (std::uint32_t i = 0; i < cfg.R(); ++i) {
      if (w.reader(i)->read_in_progress()) return true;
    }
    return false;
  };

  for (;;) {
    FASTREG_CHECK(++guard < 100'000'000);
    if (opt.crash_midway && !crashed_midway &&
        writes_invoked >= opt.num_writes / 2) {
      crashed_midway = true;
      for (std::uint32_t i = 0; i < opt.crash_servers; ++i) {
        // Torn crash: the next send burst of each victim is truncated.
        w.crash_after_sends(server_id(i), 1);
      }
    }

    bool invoked = false;
    const bool allow_invoke = opt.concurrent || !anything_in_flight();
    if (allow_invoke) {
      if (writes_invoked < opt.num_writes && idle(writer_id(0))) {
        ++writes_invoked;
        w.invoke_write("v" + std::to_string(writes_invoked));
        invoked = true;
      }
      for (std::uint32_t i = 0; i < cfg.R(); ++i) {
        if (!opt.concurrent && (invoked || anything_in_flight())) break;
        if (reads_invoked[i] < opt.reads_per_reader && idle(reader_id(i))) {
          ++reads_invoked[i];
          w.invoke_read(i);
          invoked = true;
        }
      }
    }

    if (w.in_transit().empty()) {
      if (invoked) continue;
      break;  // drained and nothing more to start
    }
    w.run_timed(r, delays, /*max_steps=*/1);
  }

  latency_report rep;
  rep.hist = w.hist();
  std::uint64_t completed = 0;
  for (const auto& op : rep.hist.ops()) {
    if (!op.response_time) {
      rep.all_complete = false;
      continue;
    }
    ++completed;
    const double lat =
        static_cast<double>(*op.response_time - op.invoke_time);
    if (op.is_write) {
      rep.write_latency.add(lat);
      rep.write_rounds.add(op.rounds);
    } else {
      rep.read_latency.add(lat);
      rep.read_rounds.add(op.rounds);
    }
  }
  rep.msgs_per_op =
      completed == 0 ? 0
                     : static_cast<double>(w.messages_sent()) /
                           static_cast<double>(completed);
  return rep;
}

// ------------------------------------------------------- multi-key store --

zipf_sampler::zipf_sampler(std::uint32_t n, double s) {
  FASTREG_EXPECTS(n >= 1);
  FASTREG_EXPECTS(s >= 0.0);
  cdf_.reserve(n);
  double total = 0.0;
  for (std::uint32_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k) + 1.0, s);
    cdf_.push_back(total);
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding leaving the last bin short
}

std::uint32_t zipf_sampler::sample(rng& r) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r.uniform01());
  return static_cast<std::uint32_t>(it - cdf_.begin());
}

double zipf_sampler::probability(std::uint32_t k) const {
  FASTREG_EXPECTS(k < cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

std::vector<std::string> sample_distinct_keys_zipf(rng& r,
                                                   const zipf_sampler& zipf,
                                                   std::uint32_t k) {
  FASTREG_EXPECTS(k <= zipf.n());
  std::vector<std::uint32_t> picked;
  picked.reserve(k);
  std::uint64_t guard = 0;
  while (picked.size() < k) {
    // Rejection keeps the marginal distribution Zipf conditioned on
    // distinctness; the guard bounds pathological streaks (k <= n makes
    // progress certain in expectation).
    FASTREG_CHECK(++guard < 10'000ull * (k + 1ull));
    const auto pick = zipf.sample(r);
    if (std::find(picked.begin(), picked.end(), pick) == picked.end()) {
      picked.push_back(pick);
    }
  }
  std::vector<std::string> keys;
  keys.reserve(k);
  for (const auto rank : picked) {
    keys.push_back("key" + std::to_string(rank));
  }
  return keys;
}

std::vector<std::string> sample_distinct_keys(rng& r,
                                              std::vector<std::uint32_t>& idx,
                                              std::uint32_t k) {
  FASTREG_EXPECTS(k <= idx.size());
  std::vector<std::string> keys;
  keys.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto j =
        i + static_cast<std::uint32_t>(r.below(idx.size() - i));
    std::swap(idx[i], idx[j]);
    keys.push_back("key" + std::to_string(idx[i]));
  }
  return keys;
}

store_report run_store_measured(const store::store_config& cfg,
                                const store_workload_options& opt) {
  FASTREG_EXPECTS(opt.num_keys >= 1);
  store::sim_store s(cfg);
  rng r(opt.seed);
  sim::uniform_delay delays(opt.delay_lo, opt.delay_hi);
  const std::uint32_t batch = std::min(std::max(opt.batch, 1u), opt.num_keys);

  std::vector<std::uint32_t> idx(opt.num_keys);
  for (std::uint32_t i = 0; i < opt.num_keys; ++i) idx[i] = i;
  const zipf_sampler zipf(opt.num_keys,
                          opt.dist == key_dist::zipf ? opt.zipf_s : 0.0);
  auto pick_keys = [&](std::uint32_t k) {
    return opt.dist == key_dist::zipf
               ? sample_distinct_keys_zipf(r, zipf, k)
               : sample_distinct_keys(r, idx, k);
  };
  // Every client keeps a batch in flight: a full batch leaves in ONE
  // invocation step (batched envelopes).
  const auto gets = [&](std::uint32_t k) {
    std::vector<store::store_op> ops;
    for (auto& key : pick_keys(k)) ops.push_back({std::move(key), false, {}});
    return ops;
  };
  std::vector<sim_client> clients;
  for (std::uint32_t j = 0; j < cfg.base.W(); ++j) {
    clients.push_back({writer_id(j), batch, opt.puts_per_writer,
                       [&, j, seq = 0u](std::uint32_t k) mutable {
                         auto ops = gets(k);
                         for (auto& op : ops) {
                           op.is_put = true;
                           op.val = "w" + std::to_string(j) + ":" +
                                    std::to_string(++seq);
                         }
                         return ops;
                       }});
  }
  for (std::uint32_t i = 0; i < cfg.base.R(); ++i) {
    clients.push_back({reader_id(i), batch, opt.gets_per_reader, gets});
  }
  drive_sim(s, r, std::move(clients), &delays);

  store_report rep;
  rep.hist = s.histories();
  const auto ops = ops_since(rep.hist, 0);
  rep.get_latency = latencies(ops.gets);
  rep.put_latency = latencies(ops.puts);
  if (ops.completed() > 0) {
    const auto n = static_cast<double>(ops.completed());
    rep.msgs_per_op = static_cast<double>(s.world().messages_sent()) / n;
    rep.envelopes_per_op =
        static_cast<double>(s.world().envelopes_sent()) / n;
    if (s.world().now() > 0) {
      rep.ops_per_ktick = n * 1000.0 / static_cast<double>(s.world().now());
    }
  }
  return rep;
}

op_times ops_since(const store::store_histories& hist, std::uint64_t t0) {
  op_times out;
  for (const auto& [key, h] : hist.all()) {
    for (const auto& op : h.ops()) {
      if (op.invoke_time < t0) continue;
      if (!op.response_time) {
        ++out.incomplete;
        continue;
      }
      (op.is_write ? out.puts : out.gets)
          .push_back(timed_op{op.invoke_time, *op.response_time});
    }
  }
  return out;
}

stats latencies(const std::vector<timed_op>& ops, double unit) {
  stats s;
  for (const auto& op : ops) s.add(static_cast<double>(op.latency()) / unit);
  return s;
}

}  // namespace fastreg::benchutil
