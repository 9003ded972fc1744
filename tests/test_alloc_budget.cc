// Heap allocations per store op on the simulator: the CPU budget of the
// per-op path in registers/, store/ and sim/ that the sim_abd benchmark
// workload measures as ops/s. The run has sim_abd's shape: abd, S = 5,
// t = 1, R = 2, 4 shards, one writer and two readers each keeping a batch
// of 8 distinct keys in flight, 4 gets per put, 16-byte values, a timed
// schedule. Every heap allocation in the process is counted (global
// operator new); after a warm-up, the count over 10k ops must stay under
// a pinned budget. A second count covers allocations above glibc's
// per-thread cache limit, which take malloc's slow path both ways: an
// 8-message batch vector is one of those.
//
// The TCP op path has its own budget on the fast_read benchmark
// workload's shape (fast_swmr over real sockets, one client reactor):
// allocations above the tcache limit and message-sized ones (batch
// vectors), per op, over every thread of the process.
//
// The simulator's half of netout::send_batch's contract is tested here
// too, since it needs the same hook: once message vectors circulate
// between senders and delivered envelopes, batched sends allocate none.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "registers/registry.h"
#include "sim/world.h"
#include "sim_test_util.h"
#include "store/async_client.h"
#include "store/sim_store.h"
#include "store/tcp_store.h"

namespace {
/// Largest request glibc's per-thread cache (tcache) serves: 1032 bytes.
constexpr std::size_t k_tcache_max_bytes = 1032;

std::atomic<std::uint64_t> g_alloc_count{0};
/// Allocations above k_tcache_max_bytes.
std::atomic<std::uint64_t> g_large_alloc_count{0};
/// Allocations of a whole number of messages: message vectors.
std::atomic<std::uint64_t> g_message_sized_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (n > k_tcache_max_bytes) {
    g_large_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (n != 0 && n % sizeof(fastreg::message) == 0) {
    g_message_sized_count.fetch_add(1, std::memory_order_relaxed);
  }
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
/// 12.24 measured when it was pinned (14.49 before batches reused their
/// vectors). A change that adds one per message (an ack-set node, a
/// broadcast copy) exceeds it.
constexpr double k_allocs_per_op_budget = 14.7;
/// Allocations above k_tcache_max_bytes per op: 0.034 measured when it
/// was pinned, 2.28 while every envelope allocated its own vector (an
/// 8-message batch is 1408 bytes). A per-envelope vector that comes back
/// exceeds it.
constexpr double k_large_allocs_per_op_budget = 0.1;

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
  const std::uint64_t large_before = g_large_alloc_count.load();
  const std::uint64_t ops = run.run(10'000);
  const std::uint64_t allocs = g_alloc_count.load() - before;
  const std::uint64_t large = g_large_alloc_count.load() - large_before;
  const double n = static_cast<double>(ops);
  const double per_op = static_cast<double>(allocs) / n;
  const double large_per_op = static_cast<double>(large) / n;
  std::printf("%llu allocations over %llu ops: %.2f per op (budget %.1f)\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(ops), per_op,
              k_allocs_per_op_budget);
  std::printf("%llu above %zu bytes: %.3f per op (budget %.2f)\n",
              static_cast<unsigned long long>(large), k_tcache_max_bytes,
              large_per_op, k_large_allocs_per_op_budget);
  EXPECT_LE(per_op, k_allocs_per_op_budget);
  EXPECT_LE(large_per_op, k_large_allocs_per_op_budget);
  EXPECT_TRUE(run.histories_atomic());
}

// ------------------------------------------------------ TCP op path --

/// Per op on the TCP run below, about 1.5x the 0.026 of each measured
/// when these were pinned. Both are per-key op_log history growth (an
/// op_record is half a message in size); no batch vector is left.
/// Before each connection decoded into a batch it keeps, every received
/// frame allocated its own vector: this run measured 1.24 per op above
/// the limit and 1.47-1.64 message-sized, and an LD_PRELOAD malloc
/// count of the fast_read benchmark 1.31 above the limit.
constexpr double k_tcp_large_allocs_per_op_budget = 0.04;
constexpr double k_tcp_message_sized_per_op_budget = 0.04;

/// fast_read's shape over localhost: fast_swmr, S = 5, t = 1, 4 shards,
/// the client node on one hub reactor, a writer and two readers each
/// keeping 8 ops on distinct keys in flight, 16-byte values.
class tcp_fast_read_run {
 public:
  tcp_fast_read_run() : ts_(config(), net::node_options{}, hub()) {
    ts_.start();
    for (std::uint32_t i = 0; i <= k_readers; ++i) {
      sessions_.push_back(ts_.open_session(
          i == 0 ? writer_id(0) : reader_id(i - 1), k_depth));
    }
  }
  ~tcp_fast_read_run() {
    sessions_.clear();
    ts_.stop();
  }
  tcp_fast_read_run(const tcp_fast_read_run&) = delete;
  tcp_fast_read_run& operator=(const tcp_fast_read_run&) = delete;

  /// Every session runs `ops_each` ops from its own thread, the writer
  /// puts and the readers gets; returns the ops completed.
  std::uint64_t run(std::uint32_t ops_each) {
    std::vector<std::uint64_t> done(sessions_.size(), 0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < sessions_.size(); ++c) {
      threads.emplace_back([this, c, ops_each, &done] {
        auto& s = *sessions_[c];
        for (std::uint32_t i = 0; i < ops_each; ++i) {
          const std::string key = key_name(i % k_keys);
          const bool ok = c == 0 ? s.put(key, make_value(++seq_[c]))
                                 : s.get(key);
          if (!ok) return;
          done[c] += s.take_results().size();
        }
        if (s.drain()) done[c] += s.take_results().size();
      });
    }
    for (auto& t : threads) t.join();
    std::uint64_t total = 0;
    for (const auto d : done) total += d;
    return total;
  }

  [[nodiscard]] bool histories_atomic() const {
    return ts_.gather().verify().ok;
  }

 private:
  static store_config config() {
    store_config cfg;
    cfg.base.servers = 5;
    cfg.base.t_failures = 1;
    cfg.base.readers = k_readers;
    cfg.base.writers = 1;
    cfg.num_shards = 4;
    cfg.shard_protocols = {"fast_swmr"};
    return cfg;
  }
  static net::cluster_options hub() {
    net::cluster_options copt;
    copt.client_hub = true;
    copt.hub_reactors = 1;
    return copt;
  }

  tcp_store ts_;
  std::vector<std::unique_ptr<async_session>> sessions_;
  /// Each session's put counter (only the writer's moves).
  std::uint64_t seq_[1 + k_readers] = {};
};

TEST(AllocBudget, TcpFastReadOpPathStaysUnderBudget) {
  tcp_fast_read_run run;
  ASSERT_GT(run.run(2'000), 0u);  // warm-up: connections, buffers, maps
  const std::uint64_t large_before = g_large_alloc_count.load();
  const std::uint64_t sized_before = g_message_sized_count.load();
  const std::uint64_t ops = run.run(10'000);
  const std::uint64_t large = g_large_alloc_count.load() - large_before;
  const std::uint64_t sized = g_message_sized_count.load() - sized_before;
  ASSERT_EQ(ops, 30'000u);
  const double n = static_cast<double>(ops);
  const double large_per_op = static_cast<double>(large) / n;
  const double sized_per_op = static_cast<double>(sized) / n;
  std::printf("%llu ops: %.3f per op above %zu bytes (budget %.2f), "
              "%.3f message-sized (budget %.2f)\n",
              static_cast<unsigned long long>(ops), large_per_op,
              k_tcache_max_bytes, k_tcp_large_allocs_per_op_budget,
              sized_per_op, k_tcp_message_sized_per_op_budget);
  EXPECT_LE(large_per_op, k_tcp_large_allocs_per_op_budget);
  EXPECT_LE(sized_per_op, k_tcp_message_sized_per_op_budget);
  EXPECT_TRUE(run.histories_atomic());
}

// ------------------------------------------------- sim send contract --

/// A server that takes every step and sends nothing.
class sink final : public automaton {
 public:
  explicit sink(process_id self) : self_(self) {}
  void on_message(netout&, const process_id&, const message&) override {}
  [[nodiscard]] process_id self() const override { return self_; }

 private:
  process_id self_;
};

/// A world of three sink servers and one reader whose invoke_step sends
/// batches through buffers it keeps, the way a batch_collector does.
class batch_sender {
 public:
  static constexpr std::uint32_t k_servers = 3;
  static constexpr std::size_t k_batch = 8;

  batch_sender() : w_(test::make_cfg(k_servers, 1, 1)) {
    w_.install(*make_protocol("abd"));
    for (std::uint32_t i = 0; i < k_servers; ++i) {
      w_.replace_automaton(server_id(i), std::make_unique<sink>(server_id(i)));
    }
    proto_.type = msg_type::read_req;
  }

  /// One step that sends a batch of `size` to every server, then the
  /// deliveries in random order. Returns the smallest capacity a buffer
  /// came back with.
  std::size_t round(std::size_t size = k_batch) {
    std::size_t min_capacity = ~std::size_t{0};
    w_.invoke_step(reader_id(0), [this, size, &min_capacity](netout& net) {
      for (std::uint32_t d = 0; d < k_servers; ++d) {
        auto& buf = bufs_[d];
        buf.assign(size, proto_);
        net.send_batch(server_id(d), buf);
        EXPECT_TRUE(buf.empty());
        min_capacity = std::min(min_capacity, buf.capacity());
      }
    });
    w_.run_random(r_);
    return min_capacity;
  }

  [[nodiscard]] sim::world& world() { return w_; }

 private:
  sim::world w_;
  rng r_{7};
  message proto_;
  std::vector<message> bufs_[k_servers];
};

TEST(SimSendContract, SteadyBatchedSendsAllocateNoMessageVectors) {
  batch_sender s;
  for (int i = 0; i < 10; ++i) (void)s.round();  // vectors start circulating
  const std::uint64_t before = g_message_sized_count.load();
  std::size_t min_capacity = ~std::size_t{0};
  for (int i = 0; i < 1000; ++i) {
    min_capacity = std::min(min_capacity, s.round());
    ASSERT_LE(s.world().spares(), sim::world::k_max_spares);
  }
  EXPECT_EQ(g_message_sized_count.load() - before, 0u);
  // Every send handed back a spare that already holds a whole batch.
  EXPECT_GE(min_capacity, batch_sender::k_batch);
}

TEST(SimSendContract, SpareListKeepsItsBoundsAndDropsOversizedVectors) {
  batch_sender s;
  (void)s.round();
  const std::size_t spares = s.world().spares();
  ASSERT_GT(spares, 0u);
  // Batches above the capacity bound are freed after delivery, not kept:
  // each send took a spare and nothing came back.
  (void)s.round(sim::world::k_max_spare_capacity + 1);
  EXPECT_EQ(s.world().spares(), spares - batch_sender::k_servers);
  // A burst of more envelopes than the list holds: it fills up to the
  // count bound and stops there.
  auto& w = s.world();
  w.invoke_step(reader_id(0), [](netout& net) {
    for (std::size_t i = 0; i < 2 * sim::world::k_max_spares; ++i) {
      message m;
      m.type = msg_type::read_req;
      net.send(server_id(0), std::move(m));
    }
  });
  rng r{3};
  w.run_random(r);
  EXPECT_EQ(w.spares(), sim::world::k_max_spares);
}

}  // namespace
}  // namespace fastreg::store
