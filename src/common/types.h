// Core identifier and value types shared by every fastreg module.
//
// The paper's system (Dutta, Guerraoui, Levy, Vukolic, PODC 2004) has three
// disjoint process sets: servers {s1..sS}, a single writer {w} (generalized
// to {w1..wW} for the MWMR discussion of Section 7), and readers {r1..rR}.
// We mirror that structure with a (role, index) pair.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace fastreg {

/// Which of the paper's three process sets a process belongs to.
enum class role : std::uint8_t {
  writer = 0,
  reader = 1,
  server = 2,
};

/// Identifies one process: a (role, index) pair. Indices are 0-based within
/// a role (the paper's r1 is `reader 0`, s1 is `server 0`, w is `writer 0`).
struct process_id {
  role r{role::server};
  std::uint32_t index{0};

  friend bool operator==(const process_id&, const process_id&) = default;
  friend auto operator<=>(const process_id&, const process_id&) = default;

  [[nodiscard]] bool is_writer() const { return r == role::writer; }
  [[nodiscard]] bool is_reader() const { return r == role::reader; }
  [[nodiscard]] bool is_server() const { return r == role::server; }
};

[[nodiscard]] inline process_id writer_id(std::uint32_t i = 0) {
  return {role::writer, i};
}
[[nodiscard]] inline process_id reader_id(std::uint32_t i) {
  return {role::reader, i};
}
[[nodiscard]] inline process_id server_id(std::uint32_t i) {
  return {role::server, i};
}

/// The paper's pid() function (Figure 2): maps the writer to 0 and reader
/// r_i to i. Used to index the per-client `counter[]` array on servers and
/// as the bit position in `seen_set`. Multi-writer runs map writer w_j to
/// slot j as well (the MWMR baseline does not use seen sets, so overlap with
/// readers is harmless there; the fast protocols are single-writer).
[[nodiscard]] inline std::uint32_t client_slot(const process_id& p) {
  switch (p.r) {
    case role::writer:
      return 0;
    case role::reader:
      return p.index + 1;
    case role::server:
      break;
  }
  return ~0u;  // servers are not clients
}

[[nodiscard]] std::string to_string(const process_id& p);

/// Wire message kinds (registers/message.h carries them). Named here, not
/// next to the message struct, so every layer that renders a type code
/// -- the flight recorder included -- shares one name table.
enum class msg_type : std::uint8_t {
  // One-phase write (all protocols) / phase-2 of the MWMR write.
  write_req = 1,
  write_ack = 2,
  // Read round (all protocols).
  read_req = 3,
  read_ack = 4,
  // Write-back phase: ABD read phase 2, MWMR read phase 2.
  wb_req = 5,
  wb_ack = 6,
  // Timestamp query: MWMR write phase 1.
  query_req = 7,
  query_ack = 8,
  // Server-to-server timestamp broadcast (max-min variant, Section 1).
  gossip = 9,
  // Reconfiguration control plane (src/reconfig). epoch_nack: a store
  // server refuses a data message for a migrating object (stale epoch or
  // the key is still draining); `epoch` carries the server's epoch.
  epoch_nack = 10,
  // Migration handoff, phase 1: read the old-generation register state of
  // one object from every server; the ack carries (ts, wid, val, prev,
  // sig) verbatim from the superseded instance.
  state_req = 11,
  state_ack = 12,
  // Migration handoff, phase 2: install the drained state as the initial
  // state of the object's new-generation instance and stop nacking it.
  seed_req = 13,
  seed_ack = 14,
  // Server-to-server lazy seed fetch: a server that missed the quorum
  // seed of a moved object asks its generation peers for the seeded
  // snapshot on first post-drain access. The ack's `rcounter` carries the
  // k_fetch_* flag bits; when k_fetch_seeded is set, (ts, wid, val, prev,
  // sig) is the ORIGINAL seed snapshot of the object's generation.
  fetch_req = 15,
  fetch_ack = 16,
};

/// The highest msg_type code: 1..k_max_msg_type are the wire's kinds,
/// anything else decodes as malformed.
inline constexpr std::uint8_t k_max_msg_type =
    static_cast<std::uint8_t>(msg_type::fetch_ack);

[[nodiscard]] const char* to_string(msg_type t);

/// Timestamps. The writer's first write carries ts = 1; ts = 0 denotes the
/// initial state whose value is bottom (the paper's special value, written
/// as \bot). MWMR timestamps carry a writer id for lexicographic tiebreak.
using ts_t = std::int64_t;
inline constexpr ts_t k_initial_ts = 0;

/// Lexicographic (number, writer) timestamp used by the MWMR baseline.
struct wts_t {
  ts_t num{0};
  std::int32_t wid{0};

  friend bool operator==(const wts_t&, const wts_t&) = default;
  friend auto operator<=>(const wts_t&, const wts_t&) = default;
};

/// Register values are opaque byte strings; the empty optional-style bottom
/// is represented by ts = 0 at the protocol layer, so plain std::string
/// suffices as the value payload type.
using value_t = std::string;

/// Identifies one register object when many are multiplexed over a shared
/// server fleet (src/store). Object 0 is the implicit single register of
/// the plain per-protocol deployments; the store derives ids from key
/// strings (see store/shard_map.h).
using object_id = std::uint64_t;
inline constexpr object_id k_default_object = 0;

/// Configuration epoch of the store's shard map (src/reconfig). Epoch 0 is
/// the map resolved at deployment time; each live reconfiguration installs
/// epoch+1. Messages carry the sender's epoch so servers can fence requests
/// routed under a superseded map.
using epoch_t = std::uint64_t;
inline constexpr epoch_t k_initial_epoch = 0;

/// Stable 64-bit key hash (FNV-1a) used to derive object ids.
[[nodiscard]] constexpr object_id fnv1a64(std::string_view s) {
  object_id h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Sentinel rendering of the initial value bottom.
inline const value_t k_bottom_value{};

/// A (timestamp, value, previous-value) triple: what the fast protocols
/// attach to every write (Section 4: "the writer attaches two tags with the
/// timestamp, containing the current value to be written and the value of
/// the immediately preceding write").
struct tagged_value {
  ts_t ts{k_initial_ts};
  value_t val{};
  value_t prev{};

  friend bool operator==(const tagged_value&, const tagged_value&) = default;
};

}  // namespace fastreg

template <>
struct std::hash<fastreg::process_id> {
  std::size_t operator()(const fastreg::process_id& p) const noexcept {
    return (static_cast<std::size_t>(p.r) << 32) ^ p.index;
  }
};
