// The fast SWMR atomic register for the arbitrary-failure model (Figure 5).
// Tolerates t faulty servers of which up to b are malicious; fast reads and
// writes whenever S > (R+2)t + (R+1)b.
//
// Differences from the crash-model protocol of Figure 2 (Section 6.1):
//  * the writer digitally signs every (ts, value, prev) triple;
//  * servers ignore messages whose timestamp signature does not verify
//    ("receivevalid");
//  * the reader writes back the highest *signed* timestamp of its previous
//    read, discards READACKs that are provably malicious (bad signature,
//    timestamp lower than the written-back one, or missing itself in the
//    seen set), and uses the weakened predicate
//    |MS| >= S - a*t - (a-1)*b.
// The initial timestamp 0 is by convention unsigned (Section 6.1).
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

class fast_bft_writer final : public automaton, public writer_iface {
 public:
  /// `obj` is bound into every signature this writer produces, so a
  /// malicious server cannot replay this object's signed timestamps into
  /// another object's message stream (see signed_payload).
  explicit fast_bft_writer(system_config cfg, object_id obj = k_default_object);

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
  object_id obj_{k_default_object};
  ts_t ts_{1};
  bool pending_{false};
  value_t cur_val_{};
  value_t last_val_{};
  server_set acks_{};
  std::uint64_t completed_{0};
};

class fast_bft_reader final : public automaton, public reader_iface {
 public:
  fast_bft_reader(system_config cfg, std::uint32_t index);

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
  [[nodiscard]] std::uint32_t last_witness() const { return last_witness_; }
  /// READACKs discarded as provably malicious across the reader's lifetime.
  [[nodiscard]] std::uint64_t discarded_acks() const { return discarded_; }

 private:
  void decide();

  system_config cfg_;
  std::uint32_t index_;
  signed_value maxts_{};  // highest signed timestamp; written back (line 13)
  std::uint64_t rcounter_{0};
  bool pending_{false};
  /// What decide() reads of each valid READACK of the current read.
  struct ack_view {
    ts_t ts{k_initial_ts};
    seen_set seen{};
  };
  std::vector<ack_view> acks_{};
  server_set ack_from_{};
  /// maxTS so far with the signed tags of the last ack carrying it.
  signed_value max_{};
  std::vector<seen_set> max_seen_{};  // decide()'s scratch
  std::optional<read_result> last_result_{};
  std::uint64_t completed_{0};
  std::uint32_t last_witness_{0};
  std::uint64_t discarded_{0};
};

class fast_bft_server final : public automaton, public seedable {
 public:
  fast_bft_server(system_config cfg, std::uint32_t index);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override {
    return server_id(index_);
  }

  [[nodiscard]] register_snapshot peek_state() const override;
  void seed_state(const register_snapshot& s) override;

  [[nodiscard]] const signed_value& stored() const { return cur_; }
  [[nodiscard]] const seen_set& seen() const { return seen_; }

 private:
  system_config cfg_;
  std::uint32_t index_;
  signed_value cur_{};
  seen_set seen_{};
  std::vector<std::uint64_t> counters_;
};

}  // namespace fastreg
