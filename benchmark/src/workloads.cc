#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace fastreg::bench {
namespace {

/// splitmix64: the benchmark's own generator, so its inputs never change
/// when the program under test changes its rng.
class input_rng {
 public:
  explicit input_rng(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t x_;
};

/// Inverse-CDF sampler over key ranks 0..n-1; s = 0 is uniform.
class key_sampler {
 public:
  key_sampler(std::uint32_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::uint32_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k) + 1.0, s);
      cdf_[k] = total;
    }
    for (auto& c : cdf_) c /= total;
    cdf_.back() = 1.0;
  }
  std::uint32_t sample(input_rng& r) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r.uniform01());
    return static_cast<std::uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::vector<workload> make_table() {
  std::vector<workload> t;
  {
    workload w;
    w.name = "fast_read";
    w.why =
        "one-round fast_swmr reads with tiny server work: the wire path, "
        "reactor hops and server serve dominate (net/, store::server)";
    w.protocol = "fast_swmr";
    w.depth = 8;
    w.gets_per_put = 19;
    w.paced = true;
    w.puts_per_second = 1000;
    t.push_back(w);
  }
  {
    workload w;
    w.name = "abd_read_d1";
    w.why =
        "depth 1, no queueing: latency is protocol rounds plus per-op fixed "
        "costs; shows a registers/ round saving or a batch-window change";
    w.protocol = "abd";
    w.depth = 1;
    w.gets_per_put = 9;
    w.paced = true;
    w.puts_per_second = 1200;
    t.push_back(w);
  }
  {
    workload w;
    w.name = "abd_write_durable";
    w.why =
        "a third puts, Zipf hot keys, 1 KiB values on disk, one server "
        "stopped and restarted: persist/, key_busy pushback, replay";
    w.protocol = "abd";
    w.dist = key_dist::zipf;
    w.value_bytes = 1024;
    w.depth = 8;
    w.gets_per_put = 2;
    w.puts_per_second = 2700;
    w.persist = true;
    w.restart = true;
    t.push_back(w);
  }
  {
    workload w;
    w.name = "sim_abd";
    w.why =
        "timed simulator: exact ticks, messages and envelopes; wall ops/s is "
        "the CPU cost of registers/, store/ and sim/ with no kernel noise";
    w.via = transport::sim;
    w.protocol = "abd";
    w.dist = key_dist::zipf;
    w.depth = 8;
    w.gets_per_put = 4;
    w.paced = true;
    w.puts_per_second = 24000;
    t.push_back(w);
  }
  return t;
}

}  // namespace

const std::vector<workload>& workloads() {
  static const std::vector<workload> table = make_table();
  return table;
}

const workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

plan make_plan(const workload& w, std::uint64_t seed, double seconds) {
  plan p;
  p.w = w;
  p.seed = seed;
  p.seconds = seconds;
  p.puts = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(w.puts_per_second * seconds)));
  p.gets_per_reader = p.puts * w.gets_per_put / k_readers;
  return p;
}

std::vector<std::uint32_t> make_script(const workload& w, std::uint64_t seed,
                                       std::uint32_t stream, std::uint64_t n,
                                       std::uint32_t batch) {
  input_rng r(seed * 0x100000001b3ull + stream);
  const key_sampler keys(k_keys, w.dist == key_dist::zipf ? k_zipf_s : 0.0);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const std::size_t group = out.size();
    const std::uint64_t want = std::min<std::uint64_t>(batch, n - group);
    while (out.size() - group < want) {
      const std::uint32_t k = keys.sample(r);
      if (std::find(out.begin() + static_cast<std::ptrdiff_t>(group),
                    out.end(), k) == out.end()) {
        out.push_back(k);
      }
    }
  }
  return out;
}

std::string key_name(std::uint32_t k) { return "key" + std::to_string(k); }

std::string make_value(std::uint64_t seq, std::uint32_t bytes) {
  char head[17];
  std::snprintf(head, sizeof head, "%016llx",
                static_cast<unsigned long long>(seq));
  std::string v(head);
  v.resize(std::max<std::size_t>(bytes, v.size()),
           static_cast<char>('a' + seq % 26));
  return v;
}

}  // namespace fastreg::bench
