// The per-object index of the op path: one open-addressing table keyed by
// object_id, with each record stored inline in its slot. A served message
// or a submitted op finds its record with one multiply, one shift and a
// short linear probe -- no modulus division and no node allocation.
//
// Layout: a power-of-two slot array, Fibonacci hashing (the key times
// 2^64/phi, top bits), linear probing, backward-shift erase (no
// tombstones), and growth by doubling once more than 3/4 of the slots are
// full. A slot whose key is 0 is empty, so key 0's record lives beside
// the array. There are no options. Every slot holds a T, so T must be
// default-constructible and movable; an empty slot holds a default T.
//
// Rules for callers:
//  1. An insert or an erase may move every record: a pointer or
//     reference into the table is valid only until the next insert or
//     erase (a lookup of a present key, find or operator[], moves
//     nothing).
//  2. for_each visits the records in slot order (key 0 first), which
//     depends on the keys and the table's history, not on insertion
//     order.
//  3. No insert or erase may happen during for_each; collect the keys and
//     change the table after the pass.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace fastreg {

template <typename T>
class object_table {
 public:
  /// The record of `key`, or null when absent.
  [[nodiscard]] T* find(object_id key) {
    return const_cast<T*>(std::as_const(*this).find(key));
  }
  [[nodiscard]] const T* find(object_id key) const {
    if (key == k_empty) return has_zero_ ? &zero_ : nullptr;
    const std::size_t i = slot_of(key);
    return i == k_absent ? nullptr : &slots_[i].val;
  }
  [[nodiscard]] bool contains(object_id key) const {
    return find(key) != nullptr;
  }

  /// The record of `key`, default-constructed first when absent.
  T& operator[](object_id key) { return *try_emplace(key).first; }

  /// The record of `key` and true when this call created it.
  std::pair<T*, bool> try_emplace(object_id key) {
    if (key == k_empty) {
      return {&zero_, !std::exchange(has_zero_, true)};
    }
    if (const std::size_t i = slot_of(key); i != k_absent) {
      return {&slots_[i].val, false};
    }
    if ((used_ + 1) * 4 > slots_.size() * 3) grow();
    slot& s = slots_[free_slot(key)];
    s.key = key;
    ++used_;
    return {&s.val, true};
  }

  /// Removes `key`'s record; false when it was absent.
  bool erase(object_id key) {
    if (key == k_empty) {
      if (!has_zero_) return false;
      has_zero_ = false;
      zero_ = T{};
      return true;
    }
    std::size_t hole = slot_of(key);
    if (hole == k_absent) return false;
    // Backward shift: pull each later member of the probe run whose home
    // does not lie in (hole, j] into the hole, so every key stays
    // reachable from its home without tombstones.
    for (std::size_t j = next(hole); slots_[j].key != k_empty; j = next(j)) {
      const std::size_t home = home_of(slots_[j].key);
      if (((j - home) & mask()) >= ((j - hole) & mask())) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].val = std::move(slots_[j].val);
        hole = j;
      }
    }
    slots_[hole].key = k_empty;
    slots_[hole].val = T{};
    --used_;
    return true;
  }

  [[nodiscard]] std::size_t size() const {
    return used_ + (has_zero_ ? 1 : 0);
  }

  /// Calls f(key, record) for every record, in slot order (rules 2, 3).
  template <typename F>
  void for_each(F&& f) {
    if (has_zero_) f(k_empty, zero_);
    for (slot& s : slots_) {
      if (s.key != k_empty) f(s.key, s.val);
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    if (has_zero_) f(k_empty, zero_);
    for (const slot& s : slots_) {
      if (s.key != k_empty) f(s.key, s.val);
    }
  }

 private:
  struct slot {
    object_id key{k_empty};
    T val{};
  };

  static constexpr object_id k_empty = 0;
  static constexpr std::size_t k_absent = ~std::size_t{0};
  static constexpr std::size_t k_min_slots = 8;
  /// 2^64 / golden ratio: consecutive keys land far apart.
  static constexpr std::uint64_t k_fib = 0x9E3779B97F4A7C15ull;

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & mask();
  }
  [[nodiscard]] std::size_t home_of(object_id key) const {
    return static_cast<std::size_t>((key * k_fib) >> shift_);
  }

  /// The slot holding `key` (not k_empty), or k_absent.
  [[nodiscard]] std::size_t slot_of(object_id key) const {
    if (used_ == 0) return k_absent;
    for (std::size_t i = home_of(key);; i = next(i)) {
      const object_id k = slots_[i].key;
      if (k == key) return i;
      if (k == k_empty) return k_absent;
    }
  }

  /// The first empty slot of `key`'s probe run (key known absent).
  [[nodiscard]] std::size_t free_slot(object_id key) const {
    std::size_t i = home_of(key);
    while (slots_[i].key != k_empty) i = next(i);
    return i;
  }

  void grow() {
    const std::size_t n = slots_.empty() ? k_min_slots : slots_.size() * 2;
    std::vector<slot> old = std::exchange(slots_, std::vector<slot>(n));
    shift_ = 64 - std::countr_zero(n);
    for (slot& s : old) {
      if (s.key == k_empty) continue;
      slot& d = slots_[free_slot(s.key)];
      d.key = s.key;
      d.val = std::move(s.val);
    }
  }

  std::vector<slot> slots_;
  /// Records in slots_ (key 0's excluded).
  std::size_t used_{0};
  /// 64 - log2(slots_.size()); set by the first grow().
  int shift_{64};
  /// Key 0's record, beside the array (0 marks an empty slot).
  bool has_zero_{false};
  T zero_{};
};

}  // namespace fastreg
