// Operation histories: the invoke/response record every driver (simulator,
// TCP cluster, adversary) produces and every checker consumes.
//
// Times are driver-defined monotone integers (simulator steps, simulated
// nanoseconds, or wall-clock nanoseconds); checkers only compare them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace fastreg::checker {

struct op_record {
  process_id client{};
  bool is_write{false};
  std::uint64_t invoke_time{0};
  /// nullopt while the op is outstanding (incomplete ops stay that way).
  std::optional<std::uint64_t> response_time{};

  // Write: the value written. Read: the value returned (when complete).
  value_t val{};
  /// Timestamp attached by the protocol (reads only; diagnostic).
  ts_t ts{0};
  std::int32_t wid{0};
  /// Round-trips the operation used (reads and writes; 1 == fast).
  int rounds{0};
};

class history {
 public:
  /// Starts an operation; returns its index for complete_op.
  std::size_t begin_op(const process_id& client, bool is_write,
                       std::uint64_t invoke_time, value_t written_value = {});

  void complete_read(std::size_t index, std::uint64_t response_time, ts_t ts,
                     std::int32_t wid, value_t returned, int rounds);
  void complete_write(std::size_t index, std::uint64_t response_time,
                      int rounds);

  /// Reorders the ops by invocation time, stably (each client's own ops
  /// keep their order). Invalidates the indices begin_op returned.
  void sort_by_invoke_time();

  /// Index of `client`'s outstanding op; nullopt when it has none.
  [[nodiscard]] std::optional<std::size_t> open_op(
      const process_id& client) const;

  [[nodiscard]] const std::vector<op_record>& ops() const { return ops_; }
  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  [[nodiscard]] const op_record& op(std::size_t i) const { return ops_[i]; }

  /// Completed writes by `client` in invocation order.
  [[nodiscard]] std::vector<op_record> writes_by(const process_id& client) const;
  /// All writes (complete and incomplete), in invocation order.
  [[nodiscard]] std::vector<op_record> all_writes() const;
  [[nodiscard]] std::vector<op_record> completed_reads() const;

  [[nodiscard]] std::string dump() const;

 private:
  std::vector<op_record> ops_;
  // Index of each client's most recent op, for O(1) well-formedness checks.
  std::unordered_map<process_id, std::size_t> last_op_;
};

}  // namespace fastreg::checker
