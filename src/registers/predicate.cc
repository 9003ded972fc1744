#include "registers/predicate.h"

#include <array>
#include <bit>

#include "common/check.h"
#include "common/server_set.h"

namespace fastreg {
namespace {

/// Depth-first search over a-element client subsets, intersecting message
/// membership masks (bit i = message i) and pruning when the count drops
/// below `need`.
bool dfs_subsets(std::span<const std::uint64_t> member_masks,
                 std::size_t start, std::uint32_t remaining,
                 std::uint64_t current, std::size_t need) {
  if (remaining == 0) {
    return static_cast<std::size_t>(std::popcount(current)) >= need;
  }
  // Not enough candidates left to reach the required subset size.
  if (member_masks.size() - start < remaining) return false;
  for (std::size_t i = start; i < member_masks.size(); ++i) {
    const std::uint64_t next = current & member_masks[i];
    if (static_cast<std::size_t>(std::popcount(next)) < need) continue;
    if (dfs_subsets(member_masks, i + 1, remaining - 1, next, need)) {
      return true;
    }
  }
  return false;
}

/// Does the predicate hold for this specific value of a?
bool exists_for_a(std::span<const seen_set> maxts_seen, std::uint32_t S,
                  std::uint32_t t, std::uint32_t b, std::uint32_t a) {
  // One membership bit per message: every reader caps S at max_servers.
  FASTREG_EXPECTS(maxts_seen.size() <= server_set::max_servers);
  const std::int64_t need_signed = static_cast<std::int64_t>(S) -
                                   static_cast<std::int64_t>(a) * t -
                                   (static_cast<std::int64_t>(a) - 1) * b;
  // Degenerate: an empty MS trivially satisfies |MS| >= need, and the
  // intersection over the empty family is the universe of clients, whose
  // size (R+1 >= a by the caller's range) meets the bound. Matches the
  // pseudocode read literally; reachable only outside the feasible region.
  if (need_signed <= 0) return true;
  const std::size_t need = static_cast<std::size_t>(need_signed);
  if (need > maxts_seen.size()) return false;

  // Union of all seen sets = candidate clients for the intersection.
  seen_set universe;
  for (const auto& s : maxts_seen) universe = universe.unite(s);
  if (universe.size() < a) return false;

  // For each candidate client, the set of messages whose seen contains it.
  std::array<std::uint64_t, seen_set::max_clients> member_masks{};
  std::size_t candidates = 0;
  for (std::uint32_t slot = 0; slot < seen_set::max_clients; ++slot) {
    const std::uint64_t bit = std::uint64_t{1} << slot;
    if ((universe.bits() & bit) == 0) continue;
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < maxts_seen.size(); ++i) {
      if ((maxts_seen[i].bits() & bit) != 0) mask |= std::uint64_t{1} << i;
    }
    // A client appearing in fewer than `need` messages can never be part
    // of a qualifying intersection.
    if (static_cast<std::size_t>(std::popcount(mask)) >= need) {
      member_masks[candidates++] = mask;
    }
  }
  if (candidates < a) return false;

  // 1 <= need <= size <= 64 here, so the shift is in range.
  const std::uint64_t all = ~std::uint64_t{0} >> (64 - maxts_seen.size());
  return dfs_subsets(std::span(member_masks.data(), candidates), 0, a, all,
                     need);
}

}  // namespace

bool fast_read_predicate(std::span<const seen_set> maxts_seen,
                         std::uint32_t S, std::uint32_t t, std::uint32_t b,
                         std::uint32_t R) {
  for (std::uint32_t a = 1; a <= R + 1; ++a) {
    if (exists_for_a(maxts_seen, S, t, b, a)) return true;
  }
  return false;
}

bool fast_read_predicate(std::span<const message> maxts_msgs, std::uint32_t S,
                         std::uint32_t t, std::uint32_t b, std::uint32_t R) {
  std::vector<seen_set> seen;
  seen.reserve(maxts_msgs.size());
  for (const auto& m : maxts_msgs) seen.push_back(m.seen);
  return fast_read_predicate(std::span<const seen_set>(seen), S, t, b, R);
}

std::uint32_t fast_read_predicate_witness(std::span<const seen_set> maxts_seen,
                                          std::uint32_t S, std::uint32_t t,
                                          std::uint32_t b, std::uint32_t R) {
  std::uint32_t best = 0;
  for (std::uint32_t a = 1; a <= R + 1; ++a) {
    if (exists_for_a(maxts_seen, S, t, b, a)) best = a;
  }
  return best;
}

}  // namespace fastreg
