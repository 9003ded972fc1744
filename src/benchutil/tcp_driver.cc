#include "benchutil/tcp_driver.h"

#include <algorithm>

#include "common/check.h"
#include "common/clock.h"

namespace fastreg::benchutil {

tcp_driver::tcp_driver(store::tcp_store& ts,
                       std::vector<client_script> scripts,
                       std::uint32_t threads)
    : deadline_(std::chrono::steady_clock::now() + k_drive_deadline) {
  FASTREG_EXPECTS(threads >= 1);
  for (auto& sc : scripts) {
    slots_.push_back(
        slot{ts.open_session(sc.client, sc.depth), std::move(sc.ops)});
  }
  const auto n = static_cast<std::uint32_t>(
      std::min<std::size_t>(threads, slots_.size()));
  running_ = n;
  start_ns_ = steady_now_ns();
  for (std::uint32_t d = 0; d < n; ++d) {
    threads_.emplace_back([this, d, n] {
      std::vector<slot*> mine;
      for (std::size_t i = d; i < slots_.size(); i += n) {
        mine.push_back(&slots_[i]);
      }
      if (mine.size() == 1) {
        run_one(*mine.front());
      } else {
        run_polled(mine);
      }
      for (slot* s : mine) settle(*s);
      --running_;
    });
  }
}

void tcp_driver::wait_submitted(std::uint64_t n) const {
  while (submitted_ < n && running_ > 0 &&
         std::chrono::steady_clock::now() < deadline_) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::uint64_t tcp_driver::join() {
  for (auto& th : threads_) th.join();
  threads_.clear();
  return failed_;
}

void tcp_driver::run_one(slot& s) {
  for (; s.next < s.ops.size(); ++s.next) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline_ - std::chrono::steady_clock::now());
    if (left.count() <= 0) return;
    auto& op = s.ops[s.next];
    const bool ok = op.is_put ? s.ses->put(op.key, std::move(op.val), left)
                              : s.ses->get(op.key, left);
    ++(ok ? submitted_ : failed_);
    (void)s.ses->take_results();
  }
}

void tcp_driver::run_polled(const std::vector<slot*>& mine) {
  for (;;) {
    bool busy = false;
    bool progress = false;
    for (slot* s : mine) {
      s->ses->pump();
      (void)s->ses->take_results();
      // Admit while the window accepts; a busy key waits like a full one.
      for (; s->next < s->ops.size(); ++s->next) {
        const auto& op = s->ops[s->next];
        const auto st = op.is_put ? s->ses->try_put(op.key, op.val)
                                  : s->ses->try_get(op.key);
        if (st == store::submit_status::window_full ||
            st == store::submit_status::key_busy) {
          break;
        }
        ++(st == store::submit_status::submitted ? submitted_ : failed_);
        progress = true;
      }
      busy = busy || s->next < s->ops.size() || s->ses->in_flight() > 0;
    }
    if (!busy || std::chrono::steady_clock::now() > deadline_) return;
    if (!progress) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

void tcp_driver::settle(slot& s) {
  failed_ += s.ops.size() - s.next;
  if (!s.ses->drain(std::chrono::seconds(10))) failed_ += s.ses->in_flight();
  (void)s.ses->take_results();
}

}  // namespace fastreg::benchutil
