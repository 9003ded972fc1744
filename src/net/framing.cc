#include "net/framing.h"

#include <cstring>

#include "obs/metrics.h"

namespace fastreg::net {
namespace {

// Process-global: a frame_buffer has no node identity, so malformed-frame
// and corrupt-stream events aggregate across every connection in the
// process. Registry handles are stable, so caching them in a static is
// safe for the life of the process.
obs::counter& malformed_frames_counter() {
  static obs::counter& c = obs::registry::instance().get_counter(
      "fastreg_net_malformed_frames_total");
  return c;
}

obs::counter& corrupt_streams_counter() {
  static obs::counter& c = obs::registry::instance().get_counter(
      "fastreg_net_corrupt_streams_total");
  return c;
}

/// Payload size (everything after the u32 length prefix, kind byte
/// included) of each frame flavor.
std::size_t hello_payload_size() { return 1 + process_id_wire_size(); }
std::size_t batch_payload_size(std::span<const message> msgs) {
  std::size_t n = 1 + process_id_wire_size() + wire_size_u32();
  for (const auto& m : msgs) n += message_wire_size(m);
  return n;
}

}  // namespace

void preheat_framing_metrics() {
  (void)malformed_frames_counter();
  (void)corrupt_streams_counter();
}

std::size_t batch_frame_wire_size(std::span<const message> msgs) {
  return 4 + batch_payload_size(msgs);
}

std::size_t append_hello_frame(std::vector<std::uint8_t>& out,
                               const process_id& from) {
  const std::size_t payload = hello_payload_size();
  out.reserve(out.size() + 4 + payload);
  byte_writer w(out);
  w.put_u32(static_cast<std::uint32_t>(payload));
  w.put_u8(static_cast<std::uint8_t>(frame_kind::hello));
  encode_process_id(w, from);
  return w.written();
}

std::size_t append_batch_frame(std::vector<std::uint8_t>& out,
                               const process_id& from,
                               std::span<const message> msgs) {
  const std::size_t payload = batch_payload_size(msgs);
  out.reserve(out.size() + 4 + payload);
  byte_writer w(out);
  w.put_u32(static_cast<std::uint32_t>(payload));
  w.put_u8(static_cast<std::uint8_t>(frame_kind::batch));
  encode_process_id(w, from);
  w.put_u32(static_cast<std::uint32_t>(msgs.size()));
  for (const auto& m : msgs) encode_message(w, m);
  return w.written();
}

std::vector<std::uint8_t> encode_hello(const process_id& from) {
  std::vector<std::uint8_t> out;
  append_hello_frame(out, from);
  return out;
}

std::vector<std::uint8_t> encode_batch_frame(const process_id& from,
                                             std::span<const message> msgs) {
  std::vector<std::uint8_t> out;
  append_batch_frame(out, from, msgs);
  return out;
}

void frame_buffer::feed(const std::uint8_t* data, std::size_t n) {
  if (corrupt_) return;  // connection is due for a reset; drop the bytes
  // Compact occasionally so the buffer does not grow without bound.
  if (consumed_ > 0 && consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  } else if (consumed_ > 64 * 1024) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

frame_buffer::parse_result frame_buffer::parse_one(const std::uint8_t* data,
                                                   std::size_t avail,
                                                   std::size_t& used,
                                                   frame& out) {
  used = 0;
  if (avail < 4) return parse_result::need_more;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(data[i]) << (8 * i);
  }
  if (len == 0 || len > max_frame_bytes) {
    // Hopeless: with the length prefix untrustworthy there is no reliable
    // frame boundary left on this stream. Latch corrupt(); the owner
    // resets the connection (see the class comment).
    malformed_frames_counter().inc();
    corrupt_ = true;
    corrupt_streams_counter().inc();
    buf_.clear();
    consumed_ = 0;
    return parse_result::corrupt;
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return parse_result::need_more;
  const std::uint8_t* body = data + 4;
  used = 4 + len;

  const std::uint8_t kind = body[0];
  byte_reader r(std::span<const std::uint8_t>(body + 1, len - 1));
  const auto from = decode_process_id(r);
  if (!from) {
    malformed_frames_counter().inc();
    return parse_result::skip;
  }
  out.from = *from;
  if (kind == static_cast<std::uint8_t>(frame_kind::hello)) {
    if (r.remaining() != 0) {  // trailing bytes after the process id
      malformed_frames_counter().inc();
      return parse_result::skip;
    }
    out.kind = frame_kind::hello;
    return parse_result::ok;
  }
  if (kind == static_cast<std::uint8_t>(frame_kind::batch)) {
    out.kind = frame_kind::batch;
    const auto count = r.get_u32();
    // An encoded message is over 40 bytes; a count the remaining payload
    // cannot possibly hold is a malformed (or hostile) frame. The bound
    // must hold BEFORE any allocation sized by count, or a crafted count
    // forces a multi-GB reserve and bad_alloc kills the process.
    if (!count || *count == 0 || *count > r.remaining() / 40) {
      malformed_frames_counter().inc();
      return parse_result::skip;
    }
    out.batch.resize(*count);
    for (auto& m : out.batch) {
      if (!decode_message(r, m)) {
        malformed_frames_counter().inc();
        out.batch.clear();
        return parse_result::skip;
      }
    }
    if (r.remaining() != 0) {  // trailing bytes after the last message
      malformed_frames_counter().inc();
      out.batch.clear();
      return parse_result::skip;
    }
    return parse_result::ok;
  }
  malformed_frames_counter().inc();
  return parse_result::skip;
}

bool frame_buffer::parse_buffered() {
  for (;;) {
    if (corrupt_) return false;
    std::size_t used = 0;
    const auto r =
        parse_one(buf_.data() + consumed_, buf_.size() - consumed_, used, cur_);
    if (r == parse_result::need_more || r == parse_result::corrupt) {
      return false;
    }
    consumed_ += used;
    if (r == parse_result::ok) return true;
    // skip: keep scanning from the next frame boundary.
  }
}

std::optional<frame> frame_buffer::next() {
  if (!parse_buffered()) return std::nullopt;
  std::optional<frame> f(std::move(cur_));
  release_batch();
  return f;
}

void frame_buffer::release_batch() {
  if (cur_.batch.capacity() > max_kept_batch) {
    cur_.batch = std::vector<message>{};
  } else {
    cur_.batch.clear();
  }
}

}  // namespace fastreg::net
