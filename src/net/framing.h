// Length-prefixed framing for protocol messages over TCP.
//
// Frame layout: u32 length (LE) | u8 kind | payload.
//   kind 0 (hello): payload = sender process_id. Sent by each actor
//                   before its first batch frame on a connection, so the
//                   acceptor learns which connection reaches it (one
//                   connection may carry many actors).
//   kind 2 (batch): payload = process_id + u32 count + count encoded
//                   messages. The process_id names the connection's
//                   client-side actor: the sender on the way to the
//                   acceptor, the addressee on the way back (whose sender
//                   is the process the connection was opened to). Every
//                   send is one such frame (a one-message send is a frame
//                   of count 1) and is delivered as one automaton step, so
//                   a burst of store traffic to one destination pays the
//                   frame and syscall overhead once.
// Kind 1 is retired: a frame of any kind other than 0 or 2 is malformed,
// and so is a payload with bytes left over after its last field.
#pragma once

#include <cstdint>
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
  /// The process id the frame names (see the layout above).
  process_id from{};
  /// The frame's messages are the first `count` (non-zero for
  /// kind::batch). A frame drain() lends keeps decoded messages of
  /// earlier frames past them, for reuse; one next() hands over holds
  /// exactly its own.
  std::vector<message> batch{};
  std::size_t count{0};

  [[nodiscard]] std::span<const message> msgs() const {
    return {batch.data(), count};
  }
};

// Zero-copy frame encoders: append one complete frame to `out` -- the
// exact frame size is computed first and reserved in one step (a no-op
// once the buffer's capacity is warmed, so the steady state performs no
// per-frame heap allocation), then the codec writes in place. `out` is
// typically a buffer_chain tail block reused across many frames. Each
// returns the bytes appended. The batch encoder takes the messages as a
// contiguous list or as a lent list of pointers (what net::node sends);
// both overloads are one encoder and emit identical bytes.
std::size_t append_hello_frame(std::vector<std::uint8_t>& out,
                               const process_id& from);
std::size_t append_batch_frame(std::vector<std::uint8_t>& out,
                               const process_id& from,
                               std::span<const message> msgs);
std::size_t append_batch_frame(std::vector<std::uint8_t>& out,
                               const process_id& from, message_refs msgs);

/// Exact on-wire size of the frame append_*_frame would emit (header
/// included); what transports pass to buffer_chain::tail_for.
[[nodiscard]] std::size_t batch_frame_wire_size(std::span<const message> msgs);
[[nodiscard]] std::size_t batch_frame_wire_size(message_refs msgs);

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
///
/// Allocation-free in steady state: every frame decodes in place into
/// one frame the buffer keeps. Its decoded messages outlive the frame:
/// the next frame decodes into the same message objects
/// (decode_message overwrites every field and reuses each string's
/// capacity) and sets the frame's count, so a stream of like frames
/// allocates nothing, not even for their values. A batch that grew past
/// max_kept_batch gives its memory back after delivery instead, so one
/// huge frame does not pin it on a connection.
class frame_buffer {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  /// The next complete fed frame, handed over with exactly its own
  /// messages (the kept batch starts over empty); nullopt when none is
  /// complete. For tests and one-shot decoding: the transport's path is
  /// drain().
  [[nodiscard]] std::optional<frame> next();

  /// Zero-copy inbound path: parses every complete frame DIRECTLY from
  /// the caller's read buffer (no copy into the internal buffer) and
  /// invokes `cb(frame&&)` for each; only a trailing partial frame is
  /// buffered for the next read. While a previous read left a partial
  /// frame pending, it is reassembled in the internal buffer first.
  /// Identical frame sequence and corrupt() semantics to feed()+next().
  ///
  /// The frame is LENT: its messages are the first `count` of its batch
  /// (frame::msgs), and the next frame overwrites them, so a span of
  /// them must not outlive the callback. A callback that moves the batch
  /// out owns it, stale messages past `count` included, and the next
  /// frame allocates a new one.
  template <class F>
  void drain(const std::uint8_t* data, std::size_t n, F&& cb) {
    if (corrupt_) return;
    if (buf_.size() != consumed_) {  // partial frame pending: buffered path
      feed(data, n);
      while (parse_buffered()) deliver(cb);
      return;
    }
    if (consumed_ > 0) {  // internal buffer fully drained: discard it
      buf_.clear();
      consumed_ = 0;
    }
    std::size_t pos = 0;
    while (pos < n) {
      std::size_t used = 0;
      const auto r = parse_one(data + pos, n - pos, used, cur_);
      if (r == parse_result::need_more) break;
      if (r == parse_result::corrupt) return;  // latched by parse_one
      pos += used;
      if (r == parse_result::ok) deliver(cb);
      // parse_result::skip: malformed payload counted, frame skipped.
    }
    if (pos < n) buf_.insert(buf_.end(), data + pos, data + n);
  }

  /// Framing lost (hopeless length prefix): reset the connection.
  [[nodiscard]] bool corrupt() const { return corrupt_; }

  /// Upper bound on accepted frame payloads; larger frames mark the
  /// stream corrupt.
  static constexpr std::uint32_t max_frame_bytes = 16 * 1024 * 1024;

  /// Largest batch capacity (in messages) kept for the next frame.
  static constexpr std::size_t max_kept_batch = 64;

 private:
  enum class parse_result : std::uint8_t { ok, need_more, skip, corrupt };

  /// Attempts to parse one frame from `data` into `out`, decoding its
  /// messages over the first ones `out` keeps; on ok/skip sets `used` to
  /// the frame's full extent, and on anything but ok leaves the count 0.
  /// On corrupt, latches corrupt_ and discards the internal buffer (the
  /// stream has no trustworthy boundary left).
  parse_result parse_one(const std::uint8_t* data, std::size_t avail,
                         std::size_t& used, frame& out);

  /// Parses the next complete frame of the internal buffer into cur_,
  /// skipping malformed ones. False when none is complete.
  bool parse_buffered();

  /// Lends cur_ to `cb`, then readies it for the next frame.
  template <class F>
  void deliver(F& cb) {
    cb(std::move(cur_));
    release_batch();
  }
  /// Zeroes cur_'s count; frees its batch past max_kept_batch.
  void release_batch();

  std::vector<std::uint8_t> buf_;
  std::size_t consumed_{0};
  bool corrupt_{false};
  /// The frame every parse decodes into (see the class comment).
  frame cur_;
};

}  // namespace fastreg::net
