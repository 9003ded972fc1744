// The `seen` set of Figure 2 / Figure 5: the set of clients (writer +
// readers) to which a server has replied since last adopting its current
// timestamp. Represented as a bitmask over client slots (writer = bit 0,
// reader r_i = bit i+1), which bounds R at 62 readers -- far above any
// feasible fast configuration we exercise and cheap to ship on the wire.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace fastreg {

class seen_set {
 public:
  constexpr seen_set() = default;
  constexpr explicit seen_set(std::uint64_t bits) : bits_(bits) {}

  static constexpr std::uint32_t max_clients = 64;

  void insert(const process_id& p) { bits_ |= bit(p); }
  void clear() { bits_ = 0; }

  [[nodiscard]] bool contains(const process_id& p) const {
    return (bits_ & bit(p)) != 0;
  }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(bits_));
  }
  [[nodiscard]] bool empty() const { return bits_ == 0; }
  [[nodiscard]] std::uint64_t bits() const { return bits_; }

  /// Set intersection: used by the fast-read predicate, which needs
  /// |intersection of m.seen over m in MS| >= a.
  [[nodiscard]] seen_set intersect(const seen_set& o) const {
    return seen_set{bits_ & o.bits_};
  }
  [[nodiscard]] seen_set unite(const seen_set& o) const {
    return seen_set{bits_ | o.bits_};
  }

  friend bool operator==(const seen_set&, const seen_set&) = default;

 private:
  static std::uint64_t bit(const process_id& p) {
    const std::uint32_t slot = client_slot(p);
    return slot < max_clients ? (std::uint64_t{1} << slot) : 0;
  }

  std::uint64_t bits_{0};
};

/// A seen_set containing every possible client: useful as the identity
/// element when folding intersections.
[[nodiscard]] constexpr seen_set seen_universe() {
  return seen_set{~std::uint64_t{0}};
}

}  // namespace fastreg
