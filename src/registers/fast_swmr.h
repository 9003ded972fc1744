// The paper's primary contribution: the fast SWMR atomic register of
// Figure 2 (crash model). Every read and every write completes in exactly
// one communication round-trip, provided R < S/t - 2.
//
// Roles:
//  * writer  -- increments its local timestamp and writes to all servers;
//    returns after S - t WRITEACKs (lines 4-8).
//  * server  -- stores the highest (ts, val, prev) it has seen, the set
//    `seen` of clients it has answered since adopting that timestamp, and a
//    per-client operation counter used to discard stale messages
//    (lines 23-35).
//  * reader  -- collects S - t READACKs, takes the maximum timestamp, and
//    returns its value iff the fast-read predicate holds, else the previous
//    value (lines 12-22). The read request writes back the reader's
//    previous maximum, which is what makes later reads see it.
//
// The same three automata, built with `signed_ts`, are Figure 5: the
// register for the arbitrary-failure model, fast whenever
// S > (R+2)t + (R+1)b. Section 6.1 derives it from Figure 2 with three
// changes, each one `signed_` branch:
//  1. the writer signs every (obj, ts, val, prev) it sends
//     (fast_swmr_writer::invoke_write);
//  2. "receivevalid": servers drop messages whose timestamp signature does
//     not verify (fast_swmr_server::on_message), the writer ignores such
//     WRITEACKs (fast_swmr_writer::on_message), and the reader discards
//     READACKs that are provably malicious -- bad signature, a timestamp
//     below the one it wrote back, or a seen set lacking itself
//     (fast_swmr_reader::on_message);
//  3. the predicate weakens to |MS| >= S - a*t - (a-1)*b
//     (fast_swmr_reader::decide; unsigned, b = 0).
// Signed timestamps travel with their signature: servers store it, acks
// carry it and the reader writes it back. The initial timestamp 0 is by
// convention unsigned. Unsigned, no signature is kept or sent, so Figure
// 2's messages stay exactly what they are.
#pragma once

#include <optional>
#include <vector>

#include "registers/automaton.h"
#include "registers/predicate.h"

namespace fastreg {

/// A signed (ts, val, prev) triple as stored/forwarded by the protocol.
struct signed_value {
  tagged_value tv{};
  std::vector<std::uint8_t> sig{};
};

/// True iff `m` carries a valid writer signature over (ts, val, prev), or
/// is the unsigned initial timestamp.
[[nodiscard]] bool valid_signed_ts(const system_config& cfg, const message& m);

class fast_swmr_writer final : public automaton, public writer_iface {
 public:
  /// Signed, `obj` is bound into every signature this writer produces, so
  /// a malicious server cannot replay this object's signed timestamps into
  /// another object's message stream (see signed_payload).
  explicit fast_swmr_writer(system_config cfg, bool signed_ts = false,
                            object_id obj = k_default_object);

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

  /// Timestamp the next write will carry (Figure 2 inits ts to 1).
  [[nodiscard]] ts_t next_ts() const { return ts_; }

 private:
  system_config cfg_;
  bool signed_;
  object_id obj_;
  ts_t ts_{1};
  bool pending_{false};
  value_t cur_val_{};
  value_t last_val_{};  // value of the immediately preceding write
  server_set acks_{};
  std::uint64_t completed_{0};
};

class fast_swmr_reader final : public automaton, public reader_iface {
 public:
  fast_swmr_reader(system_config cfg, std::uint32_t index,
                   bool signed_ts = false);

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

  /// The predicate witness `a` of the last completed read (0 = predicate
  /// failed and the read returned maxTS - 1). For white-box tests.
  [[nodiscard]] std::uint32_t last_witness() const { return last_witness_; }
  /// READACKs discarded as provably malicious across the reader's lifetime
  /// (always 0 unsigned).
  [[nodiscard]] std::uint64_t discarded_acks() const { return discarded_; }

 private:
  void decide();

  system_config cfg_;
  std::uint32_t index_;
  bool signed_;
  signed_value maxts_{};  // written back on the next read (line 13)
  std::uint64_t rcounter_{0};
  bool pending_{false};
  /// What decide() reads of each accepted READACK of the current read.
  struct ack_view {
    ts_t ts{k_initial_ts};
    seen_set seen{};
  };
  std::vector<ack_view> acks_{};
  server_set ack_from_{};
  /// maxTS so far with the value tags (and signature) of the last ack
  /// carrying it.
  signed_value max_{};
  std::vector<seen_set> max_seen_{};  // decide()'s scratch
  std::optional<read_result> last_result_{};
  std::uint64_t completed_{0};
  std::uint32_t last_witness_{0};
  std::uint64_t discarded_{0};
};

class fast_swmr_server final : public automaton, public seedable {
 public:
  fast_swmr_server(system_config cfg, std::uint32_t index,
                   bool signed_ts = false);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override {
    return server_id(index_);
  }

  [[nodiscard]] register_snapshot peek_state() const override;
  void seed_state(const register_snapshot& s) override;

  // State accessors for tests and the adversary harness.
  [[nodiscard]] const signed_value& stored() const { return cur_; }
  [[nodiscard]] const seen_set& seen() const { return seen_; }

 private:
  system_config cfg_;
  std::uint32_t index_;
  bool signed_;
  signed_value cur_{};  // sig stays empty unsigned
  seen_set seen_{};
  std::vector<std::uint64_t> counters_;  // per client_slot, Figure 2 line 25
};

}  // namespace fastreg
