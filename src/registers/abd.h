// The classic robust SWMR atomic register of Attiya, Bar-Noy and Dolev
// (JACM 1995), adapted to the paper's client/server setting (Section 1):
//
//  * write: the single writer increments its local timestamp and writes to
//    all servers, returning after S - t acks. One round-trip ("fast").
//  * read: round-trip 1 collects (ts, val) from S - t servers and selects
//    the maximum; round-trip 2 writes that pair back to S - t servers
//    before returning. Two round-trips -- the baseline the paper improves.
//
// Requires a correct majority (t < S/2) so any two (S-t)-quorums intersect.
//
// This header also defines `quorum_server`, the plain highest-timestamp-
// wins replica shared by the ABD, regular, single-reader and MWMR
// protocols (none of which need seen sets).
#pragma once

#include <optional>
#include <vector>

#include "registers/automaton.h"

namespace fastreg {

/// Shared replica automaton: stores the lexicographically largest
/// (ts, wid) and its value; acknowledges writes and write-backs; answers
/// reads; answers MWMR timestamp queries.
class quorum_server final : public automaton, public seedable {
 public:
  quorum_server(system_config cfg, std::uint32_t index);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override {
    return server_id(index_);
  }

  [[nodiscard]] register_snapshot peek_state() const override;
  void seed_state(const register_snapshot& s) override;

  [[nodiscard]] wts_t stored_ts() const { return ts_; }
  [[nodiscard]] const value_t& stored_val() const { return val_; }

 private:
  system_config cfg_;
  std::uint32_t index_;
  wts_t ts_{};
  value_t val_{};
};

/// The single writer: local timestamp, one write round.
class abd_writer final : public automaton, public writer_iface {
 public:
  explicit abd_writer(system_config cfg);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override { return writer_id(0); }

  void invoke_write(netout& net, value_t v) override;
  [[nodiscard]] bool write_in_progress() const override { return pending_; }
  [[nodiscard]] std::uint64_t writes_completed() const override {
    return completed_;
  }
  [[nodiscard]] int last_write_rounds() const override { return 1; }
  void seed_writer(const register_snapshot& migrated) override;

 private:
  system_config cfg_;
  ts_t ts_{0};
  bool pending_{false};
  server_set acks_{};
  std::uint64_t completed_{0};
  std::uint64_t rcounter_{0};
};

/// Two-round reader: query phase then write-back phase.
class abd_reader final : public automaton, public reader_iface {
 public:
  abd_reader(system_config cfg, std::uint32_t index);

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

class abd_protocol final : public protocol {
 public:
  [[nodiscard]] std::string name() const override { return "abd"; }
  [[nodiscard]] bool feasible(const system_config& cfg) const override {
    return majority_feasible(cfg.S(), cfg.t());
  }
  [[nodiscard]] int read_rounds() const override { return 2; }
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

}  // namespace fastreg
