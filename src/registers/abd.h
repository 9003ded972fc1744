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
// Most rows of the protocol table (registers/registry.cc) are built from
// the three automata here: `quorum_server`, the plain highest-timestamp-
// wins replica of every row that needs no seen sets; `abd_writer`, the
// one-round writer of the single-writer baselines and, one per writer,
// of the naive MWMR strawmen; and `abd_reader`, whose (num, wid) maximum
// also orders concurrent writers, so mwmr reads with it too.
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

/// One write round stamped (local counter, wid). Sound with one writer;
/// with several (the naive strawmen) a local counter with no query round
/// is exactly what makes the protocol unsound.
class abd_writer final : public automaton, public writer_iface {
 public:
  /// Writer `index`, whose writes carry `wid` (0 for single-writer
  /// protocols; index + 1 for the multi-writer strawmen).
  explicit abd_writer(system_config cfg, std::uint32_t index = 0,
                      std::int32_t wid = 0);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override {
    return writer_id(index_);
  }

  void invoke_write(netout& net, value_t v) override;
  [[nodiscard]] bool write_in_progress() const override { return pending_; }
  [[nodiscard]] std::uint64_t writes_completed() const override {
    return completed_;
  }
  [[nodiscard]] int last_write_rounds() const override { return 1; }
  void seed_writer(const register_snapshot& migrated) override;

 private:
  system_config cfg_;
  std::uint32_t index_;
  std::int32_t wid_;
  ts_t ts_{0};
  bool pending_{false};
  server_set acks_{};
  std::uint64_t completed_{0};
  std::uint64_t rcounter_{0};
};

/// Two-round reader: query phase then write-back phase. The maximum is
/// taken over (num, wid), so concurrent writers are totally ordered.
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

}  // namespace fastreg
