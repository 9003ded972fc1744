#include "net/buffer_chain.h"

#include <algorithm>

#include "common/check.h"

namespace fastreg::net {

std::vector<std::uint8_t>& buffer_chain::tail_for(std::size_t upcoming) {
  if (!blocks_.empty()) {
    auto& tail = blocks_.back().data;
    if (tail.size() + upcoming <= tail.capacity()) return tail;
  }
  blocks_.emplace_back();
  auto& b = blocks_.back();
  if (!spare_.empty()) {
    b.data = std::move(spare_.back());
    spare_.pop_back();
  }
  b.data.reserve(std::max(block_bytes, upcoming));
  return b.data;
}

std::size_t buffer_chain::bytes() const {
  std::size_t n = 0;
  for (const auto& b : blocks_) n += b.data.size() - b.off;
  return n;
}

std::size_t buffer_chain::fill_iovec(struct iovec* iov,
                                     std::size_t max) const {
  std::size_t n = 0;
  for (const auto& b : blocks_) {
    if (n == max) break;
    const std::size_t len = b.data.size() - b.off;
    if (len == 0) continue;  // tail block opened but not yet written into
    iov[n].iov_base =
        const_cast<std::uint8_t*>(b.data.data()) + b.off;
    iov[n].iov_len = len;
    ++n;
  }
  return n;
}

void buffer_chain::consume(std::size_t n) {
  while (n > 0) {
    FASTREG_EXPECTS(!blocks_.empty());
    auto& b = blocks_.front();
    const std::size_t avail = b.data.size() - b.off;
    // A zero-length block can only be the not-yet-filled tail; n > 0 past
    // it would mean the caller consumed more than bytes().
    FASTREG_CHECK(avail > 0);
    const std::size_t take = std::min(avail, n);
    b.off += take;
    n -= take;
    if (b.off == b.data.size()) {
      recycle(std::move(b.data));
      blocks_.pop_front();
    }
  }
  // An empty tail block left behind by consuming everything written so
  // far (off == size == 0 never happens: recycle pops exact drains); a
  // zero-length front block can only be the not-yet-filled tail, keep it.
}

void buffer_chain::recycle(std::vector<std::uint8_t> data) {
  // Oversized one-off blocks (giant frames) are not worth keeping.
  if (spare_.size() >= max_spare_blocks || data.capacity() > 2 * block_bytes) {
    return;
  }
  data.clear();
  spare_.push_back(std::move(data));
}

}  // namespace fastreg::net
