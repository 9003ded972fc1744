// Fast one-round readers with weaker or narrower guarantees (Sections 1, 8):
//
//  * regular_reader -- returns the maximum (ts, val) of S - t READACKs with
//    no write-back and no predicate. One round. This implements a *regular*
//    register (Section 8): a read concurrent with a write may return either
//    the old or the new value, and two concurrent reads may see them in
//    either order (new/old inversion), which atomicity forbids.
//    Feasible for t < S/2 and ANY number of readers -- the contrast the
//    paper draws with atomic registers.
//
//  * single_reader_fast_reader -- the Section 1 modification of ABD for
//    R = 1: the reader returns the maximum of the quorum answers unless it
//    is older than the previously returned value, in which case it returns
//    the previous value again. Atomic for a single reader with t < S/2;
//    shows the R >= 2 hypothesis of the lower bound is necessary.
//
// Both reuse abd_writer (one-round writes) and quorum_server.
#pragma once

#include <optional>

#include "registers/automaton.h"

namespace fastreg {

class regular_reader final : public automaton, public reader_iface {
 public:
  regular_reader(system_config cfg, std::uint32_t index);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override {
    return reader_id(index_);
  }

  void invoke_read(netout& net) override;
  [[nodiscard]] bool read_in_progress() const override { return pending_; }
  [[nodiscard]] const std::optional<read_result>& last_read() const override {
    return last_result_;
  }
  [[nodiscard]] std::uint64_t reads_completed() const override {
    return completed_;
  }

 private:
  system_config cfg_;
  std::uint32_t index_;
  bool pending_{false};
  std::uint64_t rcounter_{0};
  wts_t best_ts_{};
  value_t best_val_{};
  server_set acks_{};
  std::optional<read_result> last_result_{};
  std::uint64_t completed_{0};
};

class single_reader_fast_reader final : public automaton, public reader_iface {
 public:
  single_reader_fast_reader(system_config cfg, std::uint32_t index);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override {
    return reader_id(index_);
  }

  void invoke_read(netout& net) override;
  [[nodiscard]] bool read_in_progress() const override { return pending_; }
  [[nodiscard]] const std::optional<read_result>& last_read() const override {
    return last_result_;
  }
  [[nodiscard]] std::uint64_t reads_completed() const override {
    return completed_;
  }

 private:
  system_config cfg_;
  std::uint32_t index_;
  bool pending_{false};
  std::uint64_t rcounter_{0};
  wts_t last_ts_{};   // timestamp of the previously returned value
  value_t last_val_{};
  wts_t best_ts_{};
  value_t best_val_{};
  server_set acks_{};
  std::optional<read_result> last_result_{};
  std::uint64_t completed_{0};
};

}  // namespace fastreg
