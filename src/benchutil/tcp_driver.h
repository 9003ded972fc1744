// The one closed-loop TCP load driver: per-client scripts of store ops,
// each run through its own pipelined session, multiplexed over a few
// driver threads. Per-op latency comes from the op log (ops_since in
// benchutil/workload.h), never from a clock around a call.
//
// A thread that owns one session submits through its blocking get/put,
// so it resumes as soon as a window slot or the op's key frees; a thread
// that owns several polls them. A failed admission counts its op as
// failed and the driver moves on. Past k_drive_deadline, ops not yet
// submitted, and ops a final drain cannot complete, count as failed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "store/tcp_store.h"

namespace fastreg::benchutil {

inline constexpr std::chrono::seconds k_drive_deadline{120};

/// One client's ops, run in order through one session of `depth`.
struct client_script {
  process_id client;
  std::uint32_t depth{1};
  std::vector<store::store_op> ops;
};

/// `n` ops for `client`; op k is make(k).
template <typename MakeOp>
client_script make_script(process_id client, std::uint32_t depth,
                          std::uint32_t n, MakeOp make) {
  client_script sc{std::move(client), depth, {}};
  for (std::uint32_t k = 0; k < n; ++k) sc.ops.push_back(make(k));
  return sc;
}

/// Runs every script on `ts` from n = min(threads, scripts) threads;
/// thread d owns scripts d, d + n, ... Construction opens the sessions
/// (they stay open until destruction) and starts the threads.
class tcp_driver {
 public:
  tcp_driver(store::tcp_store& ts, std::vector<client_script> scripts,
             std::uint32_t threads);
  ~tcp_driver() { (void)join(); }

  /// Ops admitted so far; callers poll it to trigger midway actions.
  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  /// Sleeps until `n` ops were admitted, every thread finished, or the
  /// deadline passed.
  void wait_submitted(std::uint64_t n) const;
  /// False once every thread finished.
  [[nodiscard]] bool running() const { return running_ > 0; }
  /// steady_ns() just before the threads started.
  [[nodiscard]] std::uint64_t start_ns() const { return start_ns_; }
  /// Waits for every thread and returns the failed op count.
  std::uint64_t join();

 private:
  struct slot {
    std::unique_ptr<store::async_session> ses;
    std::vector<store::store_op> ops;
    std::size_t next{0};
  };

  void run_one(slot& s);
  void run_polled(const std::vector<slot*>& mine);
  void settle(slot& s);

  std::vector<slot> slots_;
  std::chrono::steady_clock::time_point deadline_;
  std::uint64_t start_ns_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint32_t> running_{0};
  std::vector<std::thread> threads_;
};

}  // namespace fastreg::benchutil
