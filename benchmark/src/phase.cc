#include "phase.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "obs/recorder.h"
#include "store/shard_map.h"

namespace fastreg::bench {

store::store_config base_store_config(const plan& p) {
  store::store_config cfg;
  cfg.base.servers = k_servers;
  cfg.base.t_failures = k_faults;
  cfg.base.readers = k_readers;
  cfg.base.writers = 1;
  cfg.num_shards = k_shards;
  cfg.shard_protocols = {p.w.protocol};
  return cfg;
}

void collect(const store::store_histories& h, std::uint64_t from, phase& out,
             std::vector<traced_op>* ops, span_lane* lane,
             std::uint64_t parent) {
  double get_rounds = 0;
  double put_rounds = 0;
  for (const auto& [key, hist] : h.all()) {
    const std::uint64_t obj = store::key_object_id(key);
    for (const auto& op : hist.ops()) {
      if (op.invoke_time < from || !op.response_time) continue;
      ++out.completed;
      const std::uint64_t lat = *op.response_time - op.invoke_time;
      if (op.is_write) {
        out.put_lat.push_back(lat);
        put_rounds += op.rounds;
      } else {
        out.get_lat.push_back(lat);
        get_rounds += op.rounds;
      }
      if (ops != nullptr) {
        ops->push_back({to_string(op.client), obj, op.invoke_time,
                        *op.response_time, op.is_write});
      }
    }
  }
  std::sort(out.get_lat.begin(), out.get_lat.end());
  std::sort(out.put_lat.begin(), out.put_lat.end());
  if (!out.get_lat.empty()) {
    out.get_rounds = get_rounds / static_cast<double>(out.get_lat.size());
  }
  if (!out.put_lat.empty()) {
    out.put_rounds = put_rounds / static_cast<double>(out.put_lat.size());
  }

  const std::uint64_t t0 = now_ns();
  std::string failing_key;
  checker::check_result res;
  {
    scoped_span s(lane, "verify", parent);
    res = h.verify(store::verify_mode::swmr_atomic, &failing_key);
  }
  out.verify_s = static_cast<double>(now_ns() - t0) / 1e9;
  out.verified = res.ok;
  out.verdict = res.ok ? "every key's history is atomic"
                       : "key " + failing_key + ": " + res.error;
}

std::vector<std::uint64_t> slices_from_history(
    const store::store_histories& h, std::uint64_t from) {
  std::vector<std::uint64_t> done;
  for (const auto& [key, hist] : h.all()) {
    for (const auto& op : hist.ops()) {
      if (op.invoke_time >= from && op.response_time) {
        done.push_back(*op.response_time);
      }
    }
  }
  std::sort(done.begin(), done.end());
  std::vector<std::uint64_t> slices{from};
  if (done.size() < k_slices) {
    if (!done.empty()) slices.push_back(done.back());
    return slices;
  }
  for (std::size_t k = 1; k <= k_slices; ++k) {
    slices.push_back(done[k * done.size() / k_slices - 1]);
  }
  return slices;
}

breakdown analyze_recorders(const std::vector<traced_op>& ops,
                            const std::string& dir) {
  breakdown_analyzer analyzer(k_servers - k_faults);
  std::vector<process_id> nodes{writer_id(0)};
  for (std::uint32_t i = 0; i < k_readers; ++i) nodes.push_back(reader_id(i));
  for (std::uint32_t i = 0; i < k_servers; ++i) nodes.push_back(server_id(i));
  // One node's dump in memory at a time: a full ring renders to ~30 MB.
  for (const auto& pid : nodes) {
    const std::string name = to_string(pid);
    const std::string text = obs::recorder_for(pid).dump(name);
    std::ofstream f(dir + "/" + name + ".recorder", std::ios::binary);
    f << text;
    if (!f) throw std::runtime_error("cannot write recorder dump to " + dir);
    analyzer.add_dump(text);
  }
  return analyzer.analyze(ops);
}

usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

double sum_series(const std::vector<obs::sample>& rows,
                  const std::string& name) {
  double s = 0;
  const std::string prefix = name + "{";
  for (const auto& r : rows) {
    if (r.name == name || r.name.rfind(prefix, 0) == 0) s += r.value;
  }
  return s;
}

}  // namespace fastreg::bench
