// Heap allocations per store op on the simulator: the CPU budget of the
// per-op path in registers/, store/ and sim/ that the sim_abd benchmark
// workload measures as ops/s. The run has sim_abd's shape: abd, S = 5,
// t = 1, R = 2, 4 shards, one writer and two readers each keeping a batch
// of 8 distinct keys in flight, 4 gets per put, 16-byte values, a timed
// schedule. Every heap allocation in the process is counted (global
// operator new); after a warm-up, the count over 10k ops must stay under
// a pinned budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/world.h"
#include "store/async_client.h"
#include "store/sim_store.h"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fastreg::store {
namespace {

constexpr std::uint32_t k_keys = 256;
constexpr std::uint32_t k_depth = 8;
constexpr std::uint32_t k_readers = 2;
constexpr std::uint64_t k_gets_per_put = 4;

/// Allocations per op the steady-state path may make: about 1.2x the
/// 14.49 measured when it was pinned. A change that adds one per message
/// (an ack-set node, a broadcast copy) exceeds it.
constexpr double k_allocs_per_op_budget = 17.4;

std::string key_name(std::uint32_t k) { return "key" + std::to_string(k); }

/// A 16-byte value, unique per put.
std::string make_value(std::uint64_t seq) {
  std::string v = "v" + std::to_string(seq);
  v.resize(16, '.');
  return v;
}

/// The sim_abd-shaped deployment and its closed-loop clients.
class sim_abd_run {
 public:
  sim_abd_run() : st_(config()), fe_(st_, r_), delays_(50, 150) {
    auto w = fe_.open_session(writer_id(0), k_depth);
    for (std::uint32_t k = 0; k < k_keys; ++k) {
      EXPECT_EQ(w->try_put(key_name(k), make_value(++seq_)),
                submit_status::submitted);
      if (w->in_flight() == k_depth) settle(*w);
    }
    settle(*w);
    w.reset();
    sessions_.push_back(fe_.open_session(writer_id(0), k_depth));
    for (std::uint32_t i = 0; i < k_readers; ++i) {
      sessions_.push_back(fe_.open_session(reader_id(i), k_depth));
    }
  }

  /// Runs until at least `ops` more ops completed; returns how many did.
  std::uint64_t run(std::uint64_t ops) {
    std::uint64_t done = 0;
    while (done < ops) {
      for (std::size_t c = 0; c < sessions_.size(); ++c) {
        auto& s = *sessions_[c];
        s.pump();
        done += s.take_results().size();
        if (s.in_flight() != 0) continue;
        const bool is_put = c == 0;
        if (is_put && gets_ < k_gets_per_put * puts_) continue;
        // A batch of distinct keys: one per residue class mod k_depth.
        const std::uint32_t base =
            static_cast<std::uint32_t>(keys_.below(k_keys / k_depth));
        for (std::uint32_t j = 0; j < k_depth; ++j) {
          const std::string key = key_name(base * k_depth + j);
          const submit_status st = is_put
                                       ? s.try_put(key, make_value(++seq_))
                                       : s.try_get(key);
          EXPECT_EQ(st, submit_status::submitted);
        }
        s.pump();
        (is_put ? puts_ : gets_) += k_depth;
      }
      EXPECT_GT(st_.run_timed(r_, delays_, 1), 0u);
    }
    return done;
  }

  [[nodiscard]] bool histories_atomic() {
    return st_.log().gather().verify().ok;
  }

 private:
  static store_config config() {
    store_config cfg;
    cfg.base.servers = 5;
    cfg.base.t_failures = 1;
    cfg.base.readers = k_readers;
    cfg.base.writers = 1;
    cfg.num_shards = 4;
    cfg.shard_protocols = {"abd"};
    return cfg;
  }

  void settle(async_session& s) {
    s.pump();
    while (s.in_flight() > 0) {
      ASSERT_GT(st_.run_timed(r_, delays_, 1), 0u);
      s.pump();
    }
    (void)s.take_results();
  }

  rng r_{1};
  rng keys_{2};
  sim_store st_;
  sim_frontend fe_;
  sim::uniform_delay delays_;
  std::vector<std::unique_ptr<async_session>> sessions_;
  std::uint64_t seq_{0};
  std::uint64_t puts_{0};
  std::uint64_t gets_{0};
};

TEST(AllocBudget, SimAbdOpPathStaysUnderBudget) {
  sim_abd_run run;
  run.run(5'000);  // warm-up: automata, maps and scratch reach steady size
  const std::uint64_t before = g_alloc_count.load();
  const std::uint64_t ops = run.run(10'000);
  const std::uint64_t allocs = g_alloc_count.load() - before;
  const double per_op = static_cast<double>(allocs) / static_cast<double>(ops);
  std::printf("%llu allocations over %llu ops: %.2f per op (budget %.1f)\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(ops), per_op,
              k_allocs_per_op_budget);
  EXPECT_LE(per_op, k_allocs_per_op_budget);
  EXPECT_TRUE(run.histories_atomic());
}

}  // namespace
}  // namespace fastreg::store
