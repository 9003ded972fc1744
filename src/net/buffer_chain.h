// Outbound byte stream as a chain of recycled fixed-capacity blocks.
//
// The zero-copy wire path encodes frames DIRECTLY into the chain's tail
// block (frame encoders reserve exactly, then append), so a burst of
// frames to one connection accumulates contiguously with no per-frame
// byte-vector and no memmove of unsent bytes. The whole chain is handed
// to the kernel as one writev (fill_iovec); a short write advances the
// chain in place (consume) and the next flush resumes mid-block.
// Fully-drained blocks are recycled through a small freelist, so the
// steady state allocates nothing.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <deque>
#include <vector>

namespace fastreg::net {

class buffer_chain {
 public:
  /// Default block capacity. Frames larger than this get a block of their
  /// own exact size (rare: only near-max_frame_bytes batches).
  static constexpr std::size_t block_bytes = 64 * 1024;
  /// Freelist cap: bounds idle memory to max_spare_blocks * block_bytes
  /// per connection.
  static constexpr std::size_t max_spare_blocks = 4;

  /// The buffer to encode `upcoming` more bytes into: the current tail
  /// block when its remaining capacity fits them, otherwise a fresh
  /// (recycled when possible) block. Append exactly at the returned
  /// vector's end; the reference is invalidated by the next chain call.
  [[nodiscard]] std::vector<std::uint8_t>& tail_for(std::size_t upcoming);

  [[nodiscard]] bool empty() const { return blocks_.empty(); }
  /// Unsent bytes across all blocks.
  [[nodiscard]] std::size_t bytes() const;

  /// Fills up to `max` iovecs with the unsent ranges, front first.
  /// Returns the number filled (0 on an empty chain: nothing to write,
  /// callers skip the syscall entirely).
  [[nodiscard]] std::size_t fill_iovec(struct iovec* iov,
                                       std::size_t max) const;

  /// Marks `n` bytes from the front as written (writev's return value;
  /// possibly a SHORT write ending mid-block -- the remainder stays put
  /// and the next fill_iovec resumes from it). Drained blocks are
  /// recycled onto the freelist.
  void consume(std::size_t n);

 private:
  struct block {
    std::vector<std::uint8_t> data;
    /// Bytes [0, off) are already written to the socket.
    std::size_t off{0};
  };

  void recycle(std::vector<std::uint8_t> data);

  std::deque<block> blocks_;
  std::vector<std::vector<std::uint8_t>> spare_;
};

}  // namespace fastreg::net
