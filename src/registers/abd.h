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
// Every quorum row of the protocol table (registers/registry.cc) is built
// from the three automata here; the variants the paper presents as
// changes to ABD are a rule or a flag, not classes of their own:
//
//  * a `read_rule` says how a read ends once S - t read acks are in;
//  * a querying `abd_writer` is the two-round MWMR writer in the style of
//    Lynch and Shvartsman (FTCS 1997), Section 7's baseline: it queries
//    S - t servers for the highest (num, wid) and writes (max_num + 1,
//    own wid). The (num, wid) maximum a reader takes also orders
//    concurrent writers, so mwmr reads with the write_back rule. A writer
//    that does not query stamps a local counter: sound with one writer,
//    and with several (the naive strawmen) exactly what makes the
//    protocol unsound. Proposition 11 proves no implementation does
//    better: with W >= 2, R >= 2, t >= 1, some read or write takes more
//    than one round-trip (the adversary module breaks the strawmen);
//  * an `lww` `quorum_server` lets a write win on an equal timestamp
//    number, the last-write-wins replica of one strawman.
#pragma once

#include <optional>
#include <vector>

#include "registers/automaton.h"

namespace fastreg {

/// How an `abd_reader`'s read ends once S - t read acks are in.
enum class read_rule {
  /// Write the maximum back to S - t servers, then return it: a later
  /// read's quorum meets the write-back's, so it cannot return older.
  /// Atomic; two round-trips (abd, mwmr).
  write_back,
  /// Return the maximum in one round: a *regular* register (Section 8).
  /// A read concurrent with a write may return the old or the new value
  /// and two concurrent reads may see them in either order (new/old
  /// inversion), which atomicity forbids. Fast for t < S/2 and any R
  /// (regular, and the naive strawmen).
  max,
  /// Return the maximum unless it is older than the previous return, then
  /// the previous value again (Section 1). One reader's reads are then
  /// totally ordered: atomic for R = 1 and t < S/2, which shows the
  /// R >= 2 hypothesis of the lower bound is necessary (single_reader).
  monotone_max,
  /// Return the smallest of the S - t answers (Section 1's max-min). A
  /// `maxmin_server` answers only after adopting the maximum a majority
  /// holds, so the minimum is stored at a majority already: atomic, one
  /// client round-trip (maxmin).
  min,
};

/// Shared replica automaton: stores the lexicographically largest
/// (ts, wid) and its value; acknowledges writes and write-backs (echoing
/// the request's timestamp); answers reads; answers MWMR timestamp
/// queries. With `lww`, a write also wins on an equal timestamp number,
/// whatever its wid (the naive_fast_mwmr_lww strawman).
class quorum_server final : public automaton, public seedable {
 public:
  quorum_server(system_config cfg, std::uint32_t index, bool lww = false);

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
  bool lww_;
  wts_t ts_{};
  value_t val_{};
};

/// Writes stamped (num, wid) in one round, or, with `query`, in two: a
/// query round for the highest num first (see the header).
class abd_writer final : public automaton, public writer_iface {
 public:
  /// Writer `index`, whose writes carry `wid` (0 for single-writer
  /// protocols; index + 1 for the multi-writer rows).
  explicit abd_writer(system_config cfg, std::uint32_t index = 0,
                      std::int32_t wid = 0, bool query = false);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override {
    return writer_id(index_);
  }

  void invoke_write(netout& net, value_t v) override;
  [[nodiscard]] bool write_in_progress() const override {
    return phase_ != phase::idle;
  }
  [[nodiscard]] std::uint64_t writes_completed() const override {
    return completed_;
  }
  [[nodiscard]] int last_write_rounds() const override {
    return query_ ? 2 : 1;
  }
  /// A querying writer overwrites the seeded timestamp with its query's
  /// maximum, so the seed only matters without `query`.
  void seed_writer(const register_snapshot& migrated) override;

 private:
  enum class phase { idle, query, write };

  void send_write(netout& net);

  system_config cfg_;
  std::uint32_t index_;
  std::int32_t wid_;
  bool query_;
  phase phase_{phase::idle};
  ts_t ts_{0};
  value_t val_{};
  server_set acks_{};
  std::uint64_t completed_{0};
  std::uint64_t rcounter_{0};
};

/// Collects (ts, val) from S - t servers and ends the read by `rule`.
class abd_reader final : public automaton, public reader_iface {
 public:
  abd_reader(system_config cfg, std::uint32_t index,
             read_rule rule = read_rule::write_back);

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

  void finish(int rounds);

  system_config cfg_;
  std::uint32_t index_;
  read_rule rule_;
  phase phase_{phase::idle};
  std::uint64_t rcounter_{0};
  // The pair the read returns. monotone_max keeps it across reads: its
  // next read starts from the previous return.
  wts_t best_ts_{};
  value_t best_val_{};
  server_set acks_{};
  std::optional<read_result> last_result_{};
  std::uint64_t completed_{0};
};

}  // namespace fastreg
