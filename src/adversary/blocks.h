// Server block partitions for the lower-bound constructions.
//
// Section 5 partitions the S servers into R+2 blocks B_1..B_{R+2} of size
// at most t (possible iff (R+2)t >= S, i.e. exactly when the fast SWMR
// bound fails). Section 6.2 uses T_1..T_{R+2} of size at most t plus
// B_1..B_{R+1} of size at most b (possible iff (R+2)t + (R+1)b >= S).
//
// When more readers exist than the construction needs, it uses the minimal
// number R' >= 2 for which the partition exists (the paper's footnote 5
// plays the same trick in the other direction). Blocks whose occupancy
// drives the violation -- the block that alone receives the write -- are
// filled first so they are never empty.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace fastreg::adversary {

/// A partition of server indices into named blocks.
class block_partition {
 public:
  /// `sizes[i]` servers go to block i; assignment order is by `fill_order`.
  static block_partition from_sizes(const std::vector<std::uint32_t>& sizes);

  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  [[nodiscard]] const std::vector<std::uint32_t>& block(std::size_t i) const {
    return blocks_[i];
  }
  /// Union of the given blocks, as a server-index set membership test.
  [[nodiscard]] std::vector<bool> membership(
      const std::vector<std::size_t>& block_indices,
      std::uint32_t num_servers) const;

  [[nodiscard]] std::string describe(const std::vector<std::string>& names)
      const;

 private:
  std::vector<std::vector<std::uint32_t>> blocks_;
};

/// Crash-model partition (Section 5): R'+2 blocks, |B_i| <= t, covering S.
/// Fill order: B_{R'+1} (receives the write) first, then B_1..B_{R'},
/// then B_{R'+2}. Returns nullopt when S > (R'+2)*t for every R' <= R,
/// i.e. inside the feasible region.
struct swmr_partition {
  std::uint32_t readers_used{0};  // R'
  block_partition part;           // blocks [0..R'+1] are B_1..B_{R'+2}
};
[[nodiscard]] std::optional<swmr_partition> make_swmr_partition(
    std::uint32_t S, std::uint32_t t, std::uint32_t R);

/// Arbitrary-failure partition (Section 6.2): T_1..T_{R'+2} (cap t) and
/// B_1..B_{R'+1} (cap b). Fill order: T_{R'+1}, B_{R'+1} first (they
/// receive the write), then the rest.
struct bft_partition {
  std::uint32_t readers_used{0};
  block_partition part;  // blocks [0..R'+1] = T_1..T_{R'+2},
                         // blocks [R'+2 .. 2R'+2] = B_1..B_{R'+1}
  [[nodiscard]] std::size_t T(std::size_t j) const { return j - 1; }
  [[nodiscard]] std::size_t B(std::size_t j) const {
    return readers_used + 2 + (j - 1);
  }
};
[[nodiscard]] std::optional<bft_partition> make_bft_partition(std::uint32_t S,
                                                              std::uint32_t t,
                                                              std::uint32_t b,
                                                              std::uint32_t R);

}  // namespace fastreg::adversary
