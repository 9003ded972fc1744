// Multi-writer multi-reader atomic register in the style of Lynch and
// Shvartsman (FTCS 1997), the baseline for Section 7.
//
//  * write: phase 1 queries S - t servers for the highest (num, wid)
//    timestamp; phase 2 writes (max_num + 1, own wid) to S - t servers.
//    TWO round-trips.
//  * read: phase 1 collects (ts, val) from S - t servers and picks the
//    lexicographic maximum; phase 2 writes it back. TWO round-trips.
//
// Proposition 11 proves no implementation can do better: with W >= 2,
// R >= 2, t >= 1, some read or write must take more than one round-trip.
// The adversary module contains the executable version of that proof, and
// the naive_fast_mwmr strawmen are what it breaks.
//
// Only the parts the MWMR rows of the protocol table (registers/
// registry.cc) do not share with the single-writer ones live here: the
// two-phase writer and the last-write-wins replica. mwmr reads with
// abd_reader and stores on quorum_server; the strawmen write with
// abd_writer (one per writer, each stamping its own wid) and read with
// regular_reader.
#pragma once

#include "registers/automaton.h"

namespace fastreg {

class mwmr_writer final : public automaton, public writer_iface {
 public:
  mwmr_writer(system_config cfg, std::uint32_t index);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override { return writer_id(index_); }

  void invoke_write(netout& net, value_t v) override;
  [[nodiscard]] bool write_in_progress() const override {
    return phase_ != phase::idle;
  }
  [[nodiscard]] std::uint64_t writes_completed() const override {
    return completed_;
  }
  [[nodiscard]] int last_write_rounds() const override { return 2; }

 private:
  enum class phase { idle, query, write };

  system_config cfg_;
  std::uint32_t index_;
  phase phase_{phase::idle};
  std::uint64_t rcounter_{0};
  value_t pending_val_{};
  ts_t max_num_{0};
  server_set acks_{};
  std::uint64_t completed_{0};
};

/// Last-write-wins replica: adopts on (num, wid) strictly greater OR on
/// equal num (regardless of wid). Used only by the LWW strawman.
class lww_server final : public automaton, public seedable {
 public:
  lww_server(system_config cfg, std::uint32_t index);
  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override {
    return server_id(index_);
  }

  [[nodiscard]] register_snapshot peek_state() const override {
    return {ts_.num, ts_.wid, val_, val_, {}};
  }
  void seed_state(const register_snapshot& s) override {
    ts_ = {s.ts, s.wid};
    val_ = s.val;
  }

 private:
  system_config cfg_;
  std::uint32_t index_;
  wts_t ts_{};
  value_t val_{};
};

}  // namespace fastreg
