#include "adversary/blocks.h"

#include <numeric>

#include "common/check.h"

namespace fastreg::adversary {

block_partition block_partition::from_sizes(
    const std::vector<std::uint32_t>& sizes) {
  block_partition p;
  std::uint32_t next = 0;
  for (const std::uint32_t n : sizes) {
    std::vector<std::uint32_t> blk(n);
    std::iota(blk.begin(), blk.end(), next);
    next += n;
    p.blocks_.push_back(std::move(blk));
  }
  return p;
}

std::vector<bool> block_partition::membership(
    const std::vector<std::size_t>& block_indices,
    std::uint32_t num_servers) const {
  std::vector<bool> in(num_servers, false);
  for (const std::size_t bi : block_indices) {
    for (const std::uint32_t s : blocks_[bi]) in[s] = true;
  }
  return in;
}

std::string block_partition::describe(
    const std::vector<std::string>& names) const {
  std::string out;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    out += (i < names.size() ? names[i] : "B" + std::to_string(i + 1)) + "={";
    for (std::size_t j = 0; j < blocks_[i].size(); ++j) {
      if (j != 0) out += ",";
      out += "s" + std::to_string(blocks_[i][j] + 1);
    }
    out += "} ";
  }
  return out;
}

namespace {

/// Distributes S servers over blocks with the given caps, visiting blocks
/// in `priority` order and filling each up to its cap.
std::vector<std::uint32_t> fill_sizes(std::uint32_t S,
                                      const std::vector<std::uint32_t>& caps,
                                      const std::vector<std::size_t>& priority) {
  std::vector<std::uint32_t> sizes(caps.size(), 0);
  std::uint32_t remaining = S;
  for (const std::size_t i : priority) {
    const std::uint32_t take = std::min(caps[i], remaining);
    sizes[i] = take;
    remaining -= take;
  }
  FASTREG_CHECK(remaining == 0);
  return sizes;
}

}  // namespace

std::optional<swmr_partition> make_swmr_partition(std::uint32_t S,
                                                  std::uint32_t t,
                                                  std::uint32_t R) {
  if (t == 0) return std::nullopt;
  for (std::uint32_t rp = 2; rp <= R; ++rp) {
    if (static_cast<std::uint64_t>(rp + 2) * t < S) continue;
    // Fill B_{R'+1} (index rp) first: it is the only block that receives
    // the write, and the construction needs it non-empty.
    std::vector<std::uint32_t> caps(rp + 2, t);
    std::vector<std::size_t> priority;
    priority.push_back(rp);
    for (std::size_t i = 0; i < rp; ++i) priority.push_back(i);
    priority.push_back(rp + 1);
    swmr_partition out;
    out.readers_used = rp;
    out.part = block_partition::from_sizes(fill_sizes(S, caps, priority));
    return out;
  }
  return std::nullopt;
}

std::optional<bft_partition> make_bft_partition(std::uint32_t S,
                                                std::uint32_t t,
                                                std::uint32_t b,
                                                std::uint32_t R) {
  if (t == 0) return std::nullopt;
  for (std::uint32_t rp = 2; rp <= R; ++rp) {
    const std::uint64_t capacity = static_cast<std::uint64_t>(rp + 2) * t +
                                   static_cast<std::uint64_t>(rp + 1) * b;
    if (capacity < S) continue;
    // Blocks [0 .. rp+1] are T_1..T_{rp+2} (cap t);
    // blocks [rp+2 .. 2rp+2] are B_1..B_{rp+1} (cap b).
    std::vector<std::uint32_t> caps(rp + 2, t);
    caps.insert(caps.end(), rp + 1, b);
    std::vector<std::size_t> priority;
    priority.push_back(rp);            // T_{rp+1}: receives the write
    priority.push_back(rp + 2 + rp);   // B_{rp+1}: two-faced block
    for (std::size_t i = 0; i < rp; ++i) priority.push_back(i);  // T_1..T_rp
    for (std::size_t i = 0; i < rp; ++i) {
      priority.push_back(rp + 2 + i);  // B_1..B_rp
    }
    priority.push_back(rp + 1);        // T_{rp+2}
    bft_partition out;
    out.readers_used = rp;
    out.part = block_partition::from_sizes(fill_sizes(S, caps, priority));
    return out;
  }
  return std::nullopt;
}

}  // namespace fastreg::adversary
