// Durability knobs for the store's per-server persistence (src/persist).
//
// Kept in its own tiny header so store_config (store/shard_map.h) can
// embed the options without pulling the WAL implementation into every
// translation unit that routes a key.
#pragma once

#include <cstdint>
#include <string>

namespace fastreg::persist {

/// When the op log is fsync'd:
///  * never    -- rely on the page cache. An in-process restart (the
///                crash model every test and stress schedule uses) still
///                recovers everything; only a machine crash loses the
///                un-synced tail, which the crash budget covers.
///  * interval -- fsync at most once per fsync_interval_ms of appends
///                (the default: bounded loss window, negligible cost).
///  * every_op -- fsync after every appended record (durability of each
///                acked write against power loss, at syscall cost).
enum class fsync_policy : std::uint8_t { never = 0, interval = 1, every_op = 2 };

[[nodiscard]] const char* to_string(fsync_policy p);
/// Parses "never" / "interval" / "every_op"; `fallback` on anything else.
[[nodiscard]] fsync_policy parse_fsync_policy(const std::string& s,
                                              fsync_policy fallback);

struct options {
  /// Directory holding each server's `server_<i>.log` / `server_<i>.snap`.
  /// Empty = persistence off (the in-memory-only historical behavior).
  std::string dir{};
  fsync_policy fsync{fsync_policy::interval};
  /// Minimum milliseconds between fsyncs under fsync_policy::interval.
  std::uint64_t fsync_interval_ms{25};
  /// The record floor between snapshots. A snapshot is due once at least
  /// this many records, and at least as many log bytes as the last
  /// snapshot file holds, were appended since it. Each snapshot rewrites
  /// the per-object state and truncates the log, so snapshots write
  /// about as many bytes as the log, and replay reads a snapshot plus a
  /// log of at most max(snapshot_every records, that snapshot) and one
  /// record.
  std::uint64_t snapshot_every{512};

  [[nodiscard]] bool enabled() const { return !dir.empty(); }

  /// Options rooted at `dir` with the fsync policy taken from the
  /// FASTREG_FSYNC environment knob ("never" | "interval" | "every_op";
  /// default interval) -- what the stress harness and CI soaks use.
  [[nodiscard]] static options from_env(std::string dir);
};

}  // namespace fastreg::persist
