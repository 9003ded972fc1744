// Per-op latency breakdown from flight-recorder dumps (src/obs/recorder.h,
// parsed with src/obs/timeline.h).
//
// Each op's op-log latency [t0, t1] is split along its critical path.
// For every protocol round, the path runs through the server whose ack
// arrived first:
//
//   submit        t0 (round 1) or the round's first request send (later
//                 rounds) -> the request to that server is sent
//   wire out      client send -> server recv
//   server queue  server recv -> serve
//   serve         serve -> server sends the ack
//   wire back     server send -> client recv (first ack)
//   quorum wait   first ack -> the ack that completes the quorum (S - t)
//   harvest       last round's quorum -> t1 (the op log closes the op)
//
// The client's turnaround from round r's quorum to round r+1's first
// send belongs to no layer above, so it shows up as the residual
// |t1 - t0 - sum of segments| / (t1 - t0), as does any inconsistency in
// the events. Timestamps are comparable because every TCP reactor and
// the op log share one steady clock (ns); on the simulator both are
// ticks.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace fastreg::bench {

struct traced_op {
  /// Recorder node name of the client ("w", "r1", ...).
  std::string client;
  std::uint64_t obj{0};
  std::uint64_t t0{0};
  std::uint64_t t1{0};
  bool is_put{false};
};

/// Segment names in path order.
inline const char* const k_segments[] = {
    "submit",    "wire_out",    "server_queue", "serve",
    "wire_back", "quorum_wait", "harvest"};
inline constexpr std::size_t k_num_segments = 7;

struct breakdown {
  /// Ops whose every recorder event survived in the rings.
  std::uint64_t ops_whole{0};
  /// Sums over whole ops, in clock units.
  double latency{0};
  double segment[k_num_segments]{};
  /// Gets only: total latency, and the part after the round-1 quorum.
  double get_latency{0};
  double get_after_round1{0};
  /// Medians over whole ops, in clock units.
  double segment_p50[k_num_segments]{};
  double residual_frac_p50{0};
  /// Medians over every (round, direction) one-way wire time and every
  /// round's quorum wait.
  double wire_p50{0};
  double quorum_wait_p50{0};
};

class breakdown_analyzer {
 public:
  explicit breakdown_analyzer(std::uint32_t quorum) : quorum_(quorum) {}

  /// Adds one node's recorder dump.
  void add_dump(const std::string& text);

  [[nodiscard]] breakdown analyze(const std::vector<traced_op>& ops);

 private:
  struct event {
    std::uint64_t t{0};
    std::uint64_t trace{0};
    std::uint64_t obj{0};
    std::uint32_t seq{0};
    std::uint16_t node{0};
    std::uint16_t peer{0};
    std::uint8_t kind{0};
    std::uint8_t type{0};
  };

  std::uint16_t intern(const std::string& name);

  std::uint32_t quorum_;
  std::vector<event> events_;
  std::unordered_map<std::string, std::uint16_t> names_;
  /// Latest "oldest surviving event" over all rings: ops invoked before
  /// it may have lost events to ring wrap-around.
  std::uint64_t cutoff_{0};
};

}  // namespace fastreg::bench
