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
// naive_fast_mwmr below is the strawman it breaks.
#pragma once

#include <algorithm>
#include <optional>

#include "registers/abd.h"
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

/// Same two-phase structure as abd_reader but with lexicographic (num, wid)
/// timestamps so concurrent writers are totally ordered.
class mwmr_reader final : public automaton, public reader_iface {
 public:
  mwmr_reader(system_config cfg, std::uint32_t index);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override {
    return reader_id(index_);
  }

  void invoke_read(netout& net) override;
  [[nodiscard]] bool read_in_progress() const override {
    return phase_ != phase::idle;
  }
  [[nodiscard]] const std::optional<read_result>& last_read() const override {
    return last_result_;
  }
  [[nodiscard]] std::uint64_t reads_completed() const override {
    return completed_;
  }

 private:
  enum class phase { idle, query, write_back };

  system_config cfg_;
  std::uint32_t index_;
  phase phase_{phase::idle};
  std::uint64_t rcounter_{0};
  wts_t best_ts_{};
  value_t best_val_{};
  server_set acks_{};
  std::optional<read_result> last_result_{};
  std::uint64_t completed_{0};
};

class mwmr_protocol final : public protocol {
 public:
  [[nodiscard]] std::string name() const override { return "mwmr"; }
  [[nodiscard]] bool multi_writer() const override { return true; }
  [[nodiscard]] bool feasible(const system_config& cfg) const override {
    return majority_feasible(cfg.S(), cfg.t());
  }
  [[nodiscard]] int read_rounds() const override { return 2; }
  [[nodiscard]] int write_rounds() const override { return 2; }
  [[nodiscard]] std::unique_ptr<automaton> make_writer(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override;
  [[nodiscard]] std::unique_ptr<automaton> make_reader(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override;
  [[nodiscard]] std::unique_ptr<automaton> make_server(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override;
};

/// Strawman "fast" MWMR candidate for the Proposition 11 construction:
/// every writer uses a local counter with writer-id tiebreak and one-round
/// writes; readers return the lexicographic quorum maximum in one round.
/// It is wait-free and fast -- and not atomic, as the adversary shows.
class naive_fast_mwmr_protocol final : public protocol {
 public:
  [[nodiscard]] std::string name() const override { return "naive_fast_mwmr"; }
  [[nodiscard]] bool multi_writer() const override { return true; }
  [[nodiscard]] bool feasible(const system_config& cfg) const override {
    // Claims feasibility whenever a majority is correct; Proposition 11
    // shows the claim is false (the protocol is not atomic).
    return majority_feasible(cfg.S(), cfg.t());
  }
  [[nodiscard]] int read_rounds() const override { return 1; }
  [[nodiscard]] int write_rounds() const override { return 1; }
  [[nodiscard]] std::unique_ptr<automaton> make_writer(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override;
  [[nodiscard]] std::unique_ptr<automaton> make_reader(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override;
  [[nodiscard]] std::unique_ptr<automaton> make_server(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override;
};

/// A second strawman with *last-write-wins* servers: on equal timestamp
/// numbers the server keeps the most recently received value instead of
/// tie-breaking by writer id. This one passes property P1 on the
/// sequential endpoint runs, so the Proposition 11 construction has to
/// find the flip point i1 and derive the P2 violation from the two
/// extended runs run'/run'' -- the full argument of Section 7.
class naive_fast_mwmr_lww_protocol final : public protocol {
 public:
  [[nodiscard]] std::string name() const override {
    return "naive_fast_mwmr_lww";
  }
  [[nodiscard]] bool multi_writer() const override { return true; }
  [[nodiscard]] bool feasible(const system_config& cfg) const override {
    return majority_feasible(cfg.S(), cfg.t());
  }
  [[nodiscard]] int read_rounds() const override { return 1; }
  [[nodiscard]] int write_rounds() const override { return 1; }
  [[nodiscard]] std::unique_ptr<automaton> make_writer(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override;
  [[nodiscard]] std::unique_ptr<automaton> make_reader(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override;
  [[nodiscard]] std::unique_ptr<automaton> make_server(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override;
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

/// One-round MWMR writer used by the strawmen.
class naive_mwmr_writer final : public automaton, public writer_iface {
 public:
  naive_mwmr_writer(system_config cfg, std::uint32_t index);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override { return writer_id(index_); }

  void invoke_write(netout& net, value_t v) override;
  [[nodiscard]] bool write_in_progress() const override { return pending_; }
  [[nodiscard]] std::uint64_t writes_completed() const override {
    return completed_;
  }
  [[nodiscard]] int last_write_rounds() const override { return 1; }
  void seed_writer(const register_snapshot& migrated) override {
    ts_ = std::max(ts_, migrated.ts);
  }

 private:
  system_config cfg_;
  std::uint32_t index_;
  ts_t ts_{0};
  bool pending_{false};
  std::uint64_t rcounter_{0};
  server_set acks_{};
  std::uint64_t completed_{0};
};

}  // namespace fastreg
