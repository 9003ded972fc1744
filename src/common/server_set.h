// A set of server indices, kept as one 64-bit mask: the ack and sender
// sets every quorum round collects (one entry per answering server).
// Insert, lookup and size are a few instructions and the set never
// allocates, which bounds a deployment at max_servers servers; every
// automaton that keeps one checks S against it when it is built.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/check.h"

namespace fastreg {

class server_set {
 public:
  static constexpr std::uint32_t max_servers = 64;

  /// Adds server `index`; false when it was already a member.
  bool insert(std::uint32_t index) {
    FASTREG_EXPECTS(index < max_servers);
    const std::uint64_t bit = std::uint64_t{1} << index;
    const bool fresh = (bits_ & bit) == 0;
    bits_ |= bit;
    return fresh;
  }
  void clear() { bits_ = 0; }

  [[nodiscard]] bool contains(std::uint32_t index) const {
    return index < max_servers && ((bits_ >> index) & 1) != 0;
  }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(bits_));
  }

  /// Calls f(index) for every member, in ascending index order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::uint64_t rest = bits_; rest != 0; rest &= rest - 1) {
      f(static_cast<std::uint32_t>(std::countr_zero(rest)));
    }
  }

 private:
  std::uint64_t bits_{0};
};

}  // namespace fastreg
