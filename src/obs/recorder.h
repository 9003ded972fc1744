// Causal flight recorder: a per-node lock-free ring buffer of message
// events, each stamped with the originating operation's 64-bit trace id
// and 16-bit span (the attempt/round generation), so a post-mortem can
// reconstruct exactly which frames, on which links, in which order,
// produced a checker violation.
//
// The recorder is the capture half; src/obs/timeline.h parses, merges,
// and renders the dumps. tools/trace_merge drives both from the CLI.
//
// Cost: every hook starts with one relaxed atomic load of the global
// gate (recording_active()) and returns when recording is off; a test
// asserts that a run with the gate off leaves every ring empty. When
// on, a record() is one fetch_add plus eight relaxed stores into a
// preallocated slot: no locks, no allocation, no syscalls, safe from
// reactor threads.
//
// Concurrency: each 64-byte slot is a seqlock — a stamp word bracketing
// seven relaxed-atomic payload words. Writers claim slots with a single
// fetch_add on the head counter and overwrite the oldest when the ring
// wraps; dump() snapshots slots and drops any whose stamp changed
// mid-copy (torn by a concurrent overwrite). Every access is an atomic
// with explicit ordering, so concurrent record/dump is race-free under
// TSan. A dump taken while traffic is flowing is a best-effort snapshot;
// forensics dumps happen after the run quiesces and are exact.
//
// Clock domains (the contract timeline.h's merge relies on): each event
// stores trace_now() plus a one-bit domain tag from
// trace_time_overridden(). The simulator overrides trace_now() with its
// tick counter around every automaton step (scoped_trace_time);
// otherwise it reads steady_now_ns() (common/clock.h) -- the one read
// the TCP op log stamps its histories with -- so recorder events always
// agree with the linearizability history the same run produced.
// dom=sim timestamps are simulator ticks -- globally ordered across all
// simulated nodes by the scheduler. dom=ns timestamps are steady-clock
// nanoseconds of the ONE process all net::node reactors share, so they
// are mutually comparable too. The two domains are never compared with
// each other.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace fastreg::obs {

// ------------------------------------------------------------ global gate --

namespace detail {
extern std::atomic<bool> recording_on;
}

/// True when the flight recorder is capturing. Initialized once from
/// FASTREG_OBS ("record" enables; any other non-empty value is warned
/// about and ignored).
[[nodiscard]] inline bool recording_active() {
  return detail::recording_on.load(std::memory_order_relaxed);
}
void set_recording(bool on);

// ------------------------------------------------------------------ clock --

/// Overrides trace_now() for the current thread (the simulator sets its
/// tick counter around automaton steps). Restores on destruction.
class scoped_trace_time {
 public:
  explicit scoped_trace_time(std::uint64_t t);
  ~scoped_trace_time();
  scoped_trace_time(const scoped_trace_time&) = delete;
  scoped_trace_time& operator=(const scoped_trace_time&) = delete;

 private:
  std::uint64_t prev_;
  bool had_prev_;
};

/// The thread's trace clock: the active override, else steady-clock ns.
[[nodiscard]] std::uint64_t trace_now();

/// True while a scoped_trace_time override is active on this thread --
/// i.e. trace_now() is returning simulator ticks, not steady-clock ns.
/// The recorder stores this bit with every event so the merge pass
/// never orders a sim tick against a wall-clock nanosecond.
[[nodiscard]] bool trace_time_overridden();

// -------------------------------------------------------------- trace ids --

/// Fresh operation ids for the trace field of message. Never returns 0
/// (0 means untraced on the wire).
[[nodiscard]] std::uint64_t next_trace_id();

// ----------------------------------------------------------------- events --

/// What happened. send/recv fire in the transports (sim envelope flush
/// and delivery; TCP frame append and drain); serve on a store server's
/// data path and seed install; nack when a server epoch-fences a
/// request; park/resume on the store client; fence when a server
/// buffers a request behind a lazy-seed fetch.
enum class rec_event : std::uint8_t {
  send = 0,
  recv = 1,
  serve = 2,
  nack = 3,
  park = 4,
  resume = 5,
  fence = 6,
};

[[nodiscard]] const char* to_string(rec_event e);

/// One decoded ring entry, oldest-first in dump order.
struct rec_entry {
  std::uint64_t t{0};        ///< trace_now() at capture
  bool sim_clock{false};     ///< t is sim ticks (else steady ns)
  std::uint64_t trace{0};
  std::uint16_t span{0};
  rec_event ev{rec_event::send};
  std::uint8_t mtype{0};     ///< msg_type numeric code; 0 = none (dumped as -)
  process_id peer{};         ///< the other endpoint (self is the node)
  object_id obj{k_default_object};
  epoch_t epoch{k_initial_epoch};
  ts_t ts{k_initial_ts};     ///< value timestamp carried by the message
};

// --------------------------------------------------------------- recorder --

/// One node's ring. Obtain via recorder_for() and cache the reference at
/// construction time (hot paths must not take the registry lock).
class recorder {
 public:
  /// `capacity` is rounded up to a power of two, minimum 64.
  explicit recorder(std::size_t capacity);
  // Out of line: slots_ holds the private slot type, which is complete
  // only inside recorder.cc.
  ~recorder();
  recorder(const recorder&) = delete;
  recorder& operator=(const recorder&) = delete;

  /// Append one event. Lock-free; callable from any thread. The caller
  /// checks recording_active() first (keeps the off-path to one load at
  /// the call site).
  void record(rec_event ev, std::uint64_t trace, std::uint16_t span,
              std::uint8_t mtype, const process_id& peer, object_id obj,
              epoch_t epoch, ts_t ts);

  /// Decoded entries, oldest first, optionally filtered to one object.
  /// Torn slots (overwritten mid-copy) are skipped.
  [[nodiscard]] std::vector<rec_entry> entries(
      std::optional<object_id> only_obj = std::nullopt) const;

  /// Renders entries in the dump grammar timeline.h parses: one
  /// `rec node="..." dom=... t=... ...` line per event.
  [[nodiscard]] std::string dump(
      const std::string& node,
      std::optional<object_id> only_obj = std::nullopt) const;

  void reset();

  [[nodiscard]] std::size_t capacity() const;

 private:
  struct slot;
  std::vector<slot> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
};

/// The named node's recorder, created on first use (ring capacity from
/// FASTREG_OBS_RING, default 4096 slots; a value that is not a whole
/// number in 1..2^24 is warned about and the default kept). Pointers are
/// stable for the process lifetime.
[[nodiscard]] recorder& recorder_for(const process_id& node);

/// Every registered node's dump, as (node name, dump text) pairs sorted
/// by node name. Forensics writes one file per pair.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
recorder_dump_all(std::optional<object_id> only_obj = std::nullopt);

/// Clears every registered ring (a stress run resets before its ops so a
/// failure dump holds only that run's traffic).
void recorder_reset_all();

}  // namespace fastreg::obs
