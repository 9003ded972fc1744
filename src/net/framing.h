// Length-prefixed framing for protocol messages over TCP.
//
// Frame layout: u32 length (LE) | u8 kind | payload.
//   kind 0 (hello): payload = sender process_id. Sent once per connection
//                   so the acceptor learns who is on the other end.
//   kind 2 (batch): payload = sender process_id + u32 count + count
//                   encoded messages. Every send is one such frame (a
//                   one-message send is a frame of count 1) and is
//                   delivered as one automaton step, so a burst of store
//                   traffic to one destination pays the frame and syscall
//                   overhead once.
// Kind 1 is retired: a frame of any kind other than 0 or 2 is malformed,
// and so is a payload with bytes left over after its last field.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "registers/message.h"

namespace fastreg::net {

enum class frame_kind : std::uint8_t { hello = 0, batch = 2 };

/// Forces creation of framing's lazily-registered process-global
/// counters (malformed frames, corrupt streams). Reactor threads run
/// under the registry's hot-loop creation check, so any thread that
/// will parse frames must have these preheated first -- net::node calls
/// this from its constructor (a cold, off-reactor context).
void preheat_framing_metrics();

struct frame {
  frame_kind kind{frame_kind::batch};
  process_id from{};
  std::vector<message> batch{};  // non-empty for kind::batch
};

// Zero-copy frame encoders: append one complete frame to `out` -- the
// exact frame size is computed first and reserved in one step (a no-op
// once the buffer's capacity is warmed, so the steady state performs no
// per-frame heap allocation), then the codec writes in place. `out` is
// typically a buffer_chain tail block reused across many frames. Each
// returns the bytes appended.
std::size_t append_hello_frame(std::vector<std::uint8_t>& out,
                               const process_id& from);
std::size_t append_batch_frame(std::vector<std::uint8_t>& out,
                               const process_id& from,
                               std::span<const message> msgs);

/// Exact on-wire size of the frame append_*_frame would emit (header
/// included); what transports pass to buffer_chain::tail_for.
[[nodiscard]] std::size_t batch_frame_wire_size(std::span<const message> msgs);

// Owned-buffer conveniences (tests, one-shot sends).
[[nodiscard]] std::vector<std::uint8_t> encode_hello(const process_id& from);
[[nodiscard]] std::vector<std::uint8_t> encode_batch_frame(
    const process_id& from, std::span<const message> msgs);

/// Incremental frame decoder: feed raw bytes, pop complete frames.
/// Malformed frames (bad decode) are dropped with a count, never fatal --
/// a Byzantine peer must not be able to crash a correct process.
///
/// Two failure severities:
///  * A frame with a PLAUSIBLE length prefix but an undecodable payload
///    is skipped by exactly its declared extent; later frames on the
///    stream still parse (fastreg_net_malformed_frames_total grows).
///  * An IMPLAUSIBLE length prefix (zero, or beyond max_frame_bytes)
///    means framing itself is lost: every byte after it is unattributable
///    garbage, and scanning for the "next" frame could resynchronize on
///    attacker-chosen bytes. The buffer latches corrupt(): no further
///    frames are produced and fed bytes are discarded. The connection
///    MUST be reset -- net::node closes it (the peer reconnects with
///    fresh framing state and retransmits per protocol retry rules);
///    intact frames popped before the corruption are unaffected.
class frame_buffer {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  [[nodiscard]] std::optional<frame> next();

  /// Zero-copy inbound path: parses every complete frame DIRECTLY from
  /// the caller's read buffer (no copy into the internal buffer) and
  /// invokes `cb(frame&&)` for each; only a trailing partial frame is
  /// buffered for the next read. While a previous read left a partial
  /// frame pending, falls back to the buffered feed()+next() path (the
  /// straddling frame is reassembled there). Identical frame sequence
  /// and corrupt() semantics to feed()+next().
  template <class F>
  void drain(const std::uint8_t* data, std::size_t n, F&& cb) {
    if (corrupt_) return;
    if (buf_.size() != consumed_) {  // partial frame pending: buffered path
      feed(data, n);
      while (auto f = next()) cb(std::move(*f));
      return;
    }
    if (consumed_ > 0) {  // internal buffer fully drained: discard it
      buf_.clear();
      consumed_ = 0;
    }
    std::size_t pos = 0;
    while (pos < n) {
      frame f;
      std::size_t used = 0;
      const auto r = parse_one(data + pos, n - pos, used, f);
      if (r == parse_result::need_more) break;
      if (r == parse_result::corrupt) return;  // latched by parse_one
      pos += used;
      if (r == parse_result::ok) cb(std::move(f));
      // parse_result::skip: malformed payload counted, frame skipped.
    }
    if (pos < n) buf_.insert(buf_.end(), data + pos, data + n);
  }

  /// Framing lost (hopeless length prefix): reset the connection.
  [[nodiscard]] bool corrupt() const { return corrupt_; }

  /// Upper bound on accepted frame payloads; larger frames mark the
  /// stream corrupt.
  static constexpr std::uint32_t max_frame_bytes = 16 * 1024 * 1024;

 private:
  enum class parse_result : std::uint8_t { ok, need_more, skip, corrupt };

  /// Attempts to parse one frame from `data`; on ok/skip sets `used` to
  /// the frame's full extent. On corrupt, latches corrupt_ and discards
  /// the internal buffer (the stream has no trustworthy boundary left).
  parse_result parse_one(const std::uint8_t* data, std::size_t avail,
                         std::size_t& used, frame& out);

  std::vector<std::uint8_t> buf_;
  std::size_t consumed_{0};
  bool corrupt_{false};
};

}  // namespace fastreg::net
