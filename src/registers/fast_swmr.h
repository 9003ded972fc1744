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
#pragma once

#include <optional>
#include <vector>

#include "registers/automaton.h"
#include "registers/predicate.h"

namespace fastreg {

class fast_swmr_writer final : public automaton, public writer_iface {
 public:
  explicit fast_swmr_writer(system_config cfg);

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
  ts_t ts_{1};
  bool pending_{false};
  value_t cur_val_{};
  value_t last_val_{};  // value of the immediately preceding write
  server_set acks_{};
  std::uint64_t completed_{0};
};

class fast_swmr_reader final : public automaton, public reader_iface {
 public:
  fast_swmr_reader(system_config cfg, std::uint32_t index);

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

 private:
  void decide();

  system_config cfg_;
  std::uint32_t index_;
  tagged_value maxts_{};  // written back on the next read (line 13)
  std::uint64_t rcounter_{0};
  bool pending_{false};
  /// What decide() reads of each READACK of the current read.
  struct ack_view {
    ts_t ts{k_initial_ts};
    seen_set seen{};
  };
  std::vector<ack_view> acks_{};
  server_set ack_from_{};
  /// maxTS so far with the value tags of the last ack carrying it.
  tagged_value max_{};
  std::vector<seen_set> max_seen_{};  // decide()'s scratch
  std::optional<read_result> last_result_{};
  std::uint64_t completed_{0};
  std::uint32_t last_witness_{0};
};

class fast_swmr_server final : public automaton, public seedable {
 public:
  fast_swmr_server(system_config cfg, std::uint32_t index);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override {
    return server_id(index_);
  }

  [[nodiscard]] register_snapshot peek_state() const override;
  void seed_state(const register_snapshot& s) override;

  // State accessors for tests and the adversary harness.
  [[nodiscard]] const tagged_value& stored() const { return cur_; }
  [[nodiscard]] const seen_set& seen() const { return seen_; }

 private:
  system_config cfg_;
  std::uint32_t index_;
  tagged_value cur_{};
  seen_set seen_{};
  std::vector<std::uint64_t> counters_;  // per client_slot, Figure 2 line 25
};

}  // namespace fastreg
