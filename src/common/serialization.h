// Minimal, dependency-free binary codec used for wire messages (net
// transport), the op log and snapshots (persist) and signature payloads
// (crypto). Fixed little-endian integer encodings, each copied as one
// word; length-prefixed strings and byte blobs.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace fastreg {

// Fixed-width fields are copied to and from the buffer as whole words, so
// the in-memory byte order IS the wire order.
static_assert(std::endian::native == std::endian::little,
              "the codec copies little-endian fields by word");

/// Appends encoded fields to a byte buffer -- either one it owns (default
/// constructor) or one the CALLER owns (external-buffer constructor).
///
/// The external mode is the zero-copy wire path: the transport precomputes
/// the exact encoded size (message_wire_size and friends), reserves once
/// into a long-lived buffer it reuses across messages, and encodes
/// directly into it. In steady state (capacity warmed) no put_* call
/// allocates, so encoding a message costs only the byte stores -- no
/// intermediate std::vector per message.
class byte_writer {
 public:
  byte_writer() : buf_(&owned_) {}
  /// Appends to `external` (which must outlive the writer). take() is
  /// invalid in this mode; written() reports bytes appended by this
  /// writer.
  explicit byte_writer(std::vector<std::uint8_t>& external)
      : buf_(&external), base_(external.size()) {}

  void put_u8(std::uint8_t v) { buf_->push_back(v); }

  void put_u32(std::uint32_t v) { put_fixed(v); }
  void put_u64(std::uint64_t v) { put_fixed(v); }
  void put_i64(std::int64_t v) { put_fixed(static_cast<std::uint64_t>(v)); }
  void put_i32(std::int32_t v) { put_fixed(static_cast<std::uint32_t>(v)); }

  void put_bytes(std::span<const std::uint8_t> b) {
    put_u32(static_cast<std::uint32_t>(b.size()));
    buf_->insert(buf_->end(), b.begin(), b.end());
  }
  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    buf_->insert(buf_->end(), s.begin(), s.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return *buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() {
    FASTREG_EXPECTS(buf_ == &owned_);
    return std::move(owned_);
  }
  /// Bytes this writer appended (external mode: past the construction-time
  /// end of the buffer).
  [[nodiscard]] std::size_t written() const { return buf_->size() - base_; }

 private:
  /// One capacity check and one copy per field.
  template <typename T>
  void put_fixed(T v) {
    std::uint8_t bytes[sizeof(T)] = {};
    std::memcpy(bytes, &v, sizeof(T));
    buf_->insert(buf_->end(), bytes, bytes + sizeof(T));
  }

  std::vector<std::uint8_t> owned_;
  std::vector<std::uint8_t>* buf_;
  std::size_t base_{0};
};

/// Exact encoded sizes of byte_writer's field encodings, for callers that
/// reserve buffer space before encoding (the zero-copy wire path).
[[nodiscard]] constexpr std::size_t wire_size_u8() { return 1; }
[[nodiscard]] constexpr std::size_t wire_size_u32() { return 4; }
[[nodiscard]] constexpr std::size_t wire_size_u64() { return 8; }
[[nodiscard]] inline std::size_t wire_size_string(const std::string& s) {
  return 4 + s.size();
}
[[nodiscard]] inline std::size_t wire_size_bytes(
    std::span<const std::uint8_t> b) {
  return 4 + b.size();
}

/// Reads encoded fields from a borrowed byte span. All getters report
/// truncation (nullopt, or false for the in-place ones) instead of
/// throwing, so malformed network input (including bytes crafted by
/// Byzantine peers) is rejected gracefully.
class byte_reader {
 public:
  explicit byte_reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> get_u8() {
    if (pos_ + 1 > data_.size()) return std::nullopt;
    return data_[pos_++];
  }
  [[nodiscard]] std::optional<std::uint32_t> get_u32() {
    return get_fixed<std::uint32_t>();
  }
  [[nodiscard]] std::optional<std::uint64_t> get_u64() {
    return get_fixed<std::uint64_t>();
  }
  [[nodiscard]] std::optional<std::int64_t> get_i64() {
    auto v = get_fixed<std::uint64_t>();
    if (!v) return std::nullopt;
    return static_cast<std::int64_t>(*v);
  }
  [[nodiscard]] std::optional<std::int32_t> get_i32() {
    auto v = get_fixed<std::uint32_t>();
    if (!v) return std::nullopt;
    return static_cast<std::int32_t>(*v);
  }
  /// Length-prefixed fields, assigned into `out` so that a reused
  /// destination keeps its capacity. False on truncation (`out` is then
  /// unspecified).
  [[nodiscard]] bool get_string(std::string& out) {
    const auto p = get_blob();
    if (!p) return false;
    out.assign(reinterpret_cast<const char*>(p->data()), p->size());
    return true;
  }
  [[nodiscard]] bool get_bytes(std::vector<std::uint8_t>& out) {
    const auto p = get_blob();
    if (!p) return false;
    out.assign(p->begin(), p->end());
    return true;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  /// One bounds check and one copy per field.
  template <typename T>
  [[nodiscard]] std::optional<T> get_fixed() {
    if (pos_ + sizeof(T) > data_.size()) return std::nullopt;
    T v{};
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// A length-prefixed field's bytes, borrowed from the input.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> get_blob() {
    const auto n = get_u32();
    if (!n || pos_ + *n > data_.size()) return std::nullopt;
    const auto p = data_.subspan(pos_, *n);
    pos_ += *n;
    return p;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
};

}  // namespace fastreg
