// The single wire message type shared by every protocol in fastreg.
//
// One struct (rather than a per-protocol variant hierarchy) keeps the
// simulator's in-transit set, the TCP codec, and the adversary's message
// surgery uniform. Fields unused by a protocol are left at their defaults
// and cost nothing on the simulated path.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/seen_set.h"
#include "common/serialization.h"
#include "common/types.h"

namespace fastreg {

namespace obs {
class recorder;
enum class rec_event : std::uint8_t;
}  // namespace obs

/// fetch_ack flag bits (carried in message::rcounter): the answering peer
/// holds the object's seeded new-generation snapshot / still holds its
/// previous-generation instance.
inline constexpr std::uint64_t k_fetch_seeded = 1;
inline constexpr std::uint64_t k_fetch_prev_hosted = 2;

struct message {
  msg_type type{msg_type::read_req};

  /// Which register object this message belongs to. The single-register
  /// deployments leave it at k_default_object; the store (src/store)
  /// multiplexes many objects over one transport and demultiplexes on it.
  object_id obj{k_default_object};

  /// Shard-map epoch the sender routed under (src/reconfig). Store servers
  /// fence data messages for migrating objects on it; single-register
  /// deployments leave it at k_initial_epoch.
  epoch_t epoch{k_initial_epoch};

  /// Client-side attempt counter for one store operation: bumped every
  /// time the op is re-issued after an epoch_nack, and echoed by nacks so
  /// the client can discard nacks aimed at an abandoned attempt.
  std::uint32_t attempt{0};

  /// Marks migration-handoff traffic (state/seed), which bypasses the
  /// epoch fence that holds ordinary client ops back during a drain.
  bool mig{false};

  /// Flight-recorder identity (src/obs/recorder.h): the 64-bit id of the
  /// originating operation, carried unchanged through every request, ack,
  /// nack, and server-to-server hop that the op causes. 0 means untraced.
  std::uint64_t trace{0};

  /// Span within the trace: 0 on the first issue, bumped each time the op
  /// is re-issued (epoch nack, park/resume), so the recorder can separate
  /// the rounds of each attempt.
  std::uint16_t span{0};

  /// Timestamp number. 0 is the initial timestamp whose value is bottom.
  ts_t ts{k_initial_ts};
  /// Writer id for MWMR lexicographic timestamps; 0 in single-writer runs.
  std::int32_t wid{0};

  /// Value associated with ts, and the value of the immediately preceding
  /// write (Section 4's two tags).
  value_t val{};
  value_t prev{};

  /// The server's seen set (Figure 2 line 33); empty on requests.
  seen_set seen{};

  /// Per-client operation counter (Figure 2's rCounter). Writers use 0 for
  /// every write in the fast protocols; other protocols tag each op.
  std::uint64_t rcounter{0};

  /// Writer signature over (ts, wid, val, prev); Figure 5 only.
  std::vector<std::uint8_t> sig{};

  /// For gossip: the reader whose read triggered the broadcast.
  process_id origin{};

  [[nodiscard]] wts_t wts() const { return wts_t{ts, wid}; }

  friend bool operator==(const message&, const message&) = default;
};

/// Records one flight-recorder event per message of a batch that this
/// node sent to `peer` (ev = send) or received from it (ev = recv): the
/// one mapping from a wire message to a recorder event, shared by both
/// transports. The caller checks obs::recording_active() first.
void record_batch(obs::recorder& rec, obs::rec_event ev,
                  const process_id& peer, std::span<const message> msgs);

/// Canonical byte payload the writer signs: (obj, ts, wid, val, prev).
/// Shared by signers (writer) and verifiers (servers, readers). Binding
/// the object id prevents a malicious server from replaying a correctly
/// signed timestamp of one object into another object's message stream.
[[nodiscard]] std::vector<std::uint8_t> signed_payload(const message& m);
[[nodiscard]] std::vector<std::uint8_t> signed_payload(object_id obj, ts_t ts,
                                                       std::int32_t wid,
                                                       const value_t& val,
                                                       const value_t& prev);

/// Wire codec (used by the TCP transport; the simulator passes structs).
void encode_message(byte_writer& w, const message& m);
/// Decodes one message into `m`, overwriting every field; a reused `m`
/// keeps its strings' and signature's capacity. False on malformed input
/// (truncation, an unknown type, a span wider than u16, a bad origin
/// role), with `m` then unspecified.
[[nodiscard]] bool decode_message(byte_reader& r, message& m);

void encode_process_id(byte_writer& w, const process_id& p);
[[nodiscard]] std::optional<process_id> decode_process_id(byte_reader& r);

/// EXACT encoded sizes of the codec above, for the zero-copy wire path:
/// the transport sums these, reserves once into a reused buffer, and
/// encodes in place -- no intermediate byte vector per message. Kept
/// adjacent to the encoders; a field added to one must be added to both
/// (the encoder no-allocation unit test catches a drift).
[[nodiscard]] constexpr std::size_t process_id_wire_size() {
  return wire_size_u8() + wire_size_u32();
}
[[nodiscard]] inline std::size_t message_wire_size(const message& m) {
  return wire_size_u8()                           // type
         + wire_size_u64()                        // obj
         + wire_size_u64()                        // epoch
         + wire_size_u32()                        // attempt
         + wire_size_u8()                         // mig
         + wire_size_u64()                        // trace
         + wire_size_u32()                        // span (u16, sent as u32)
         + wire_size_u64()                        // ts (i64)
         + wire_size_u32()                        // wid (i32)
         + wire_size_string(m.val)                // val
         + wire_size_string(m.prev)               // prev
         + wire_size_u64()                        // seen bits
         + wire_size_u64()                        // rcounter
         + wire_size_bytes(m.sig)                 // sig
         + process_id_wire_size();                // origin
}

}  // namespace fastreg
