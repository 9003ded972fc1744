// One store server's durability engine: owns the server's op log and
// snapshot file, replays them at construction, and exposes the append /
// snapshot entry points store::server calls after applying state.
//
// Recovery = snapshot, then log tail. The log may contain records from
// several epochs; an epoch_mark record (appended at install_map) advances
// the recovered epoch and drops the state of objects the install fenced
// for migration -- their post-mark seed records re-establish them. The
// caller (store::server) compares the recovered epoch against its current
// shard map and either installs the state (rejoin) or discards it and
// falls back to the bootstrap/lazy-seed path (the map moved on while the
// server was down, so its idea of which objects it owns is void).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "persist/options.h"
#include "persist/wal.h"

namespace fastreg::persist {

/// State recovered from disk at construction.
struct recovered_state {
  epoch_t epoch{k_initial_epoch};
  /// Latest durable snapshot per object (op and seed records both land
  /// here; replay keeps only the last record per object).
  std::unordered_map<object_id, register_snapshot> objects{};
  /// Anything -- snapshot or log records -- existed on disk.
  bool found{false};
};

class server_durability {
 public:
  server_durability(options opt, std::uint32_t server_index);

  [[nodiscard]] const recovered_state& recovered() const { return rec_; }
  /// Epoch fence failed: drop the recovered state AND its on-disk backing
  /// (log truncated, snapshot removed), so appends under the new epoch
  /// start from a clean slate instead of stacking on void state.
  void discard_recovered();

  void append_op(epoch_t epoch, object_id obj, const register_snapshot& s);
  void append_seed(epoch_t epoch, object_id obj, const register_snapshot& s);
  void append_epoch_mark(epoch_t epoch,
                         const std::vector<object_id>& fenced);

  /// True once, since the last snapshot, at least snapshot_every records
  /// and at least as many log bytes as the last committed snapshot file
  /// accumulated; the server answers with write_snapshot. Snapshots then
  /// write about as many bytes as the log does, and replay reads at most
  /// about twice the state: a snapshot plus a log no larger than it.
  [[nodiscard]] bool snapshot_due() const {
    return since_snapshot_ >= opt_.snapshot_every &&
           log_.bytes() >= snap_bytes_;
  }
  /// Streams a full-state snapshot of exactly `count` objects: `fill`
  /// add()s each of them to the writer. A committed snapshot truncates
  /// the log it supersedes; a failed one keeps the log.
  void write_snapshot(epoch_t epoch, std::uint32_t count,
                      const std::function<void(snapshot_writer&)>& fill);

  /// Forces the log to disk (tests and orderly shutdown).
  void sync() { log_.sync(); }

  [[nodiscard]] const std::string& log_path() const { return log_.path(); }
  [[nodiscard]] const std::string& snap_path() const { return snap_path_; }

  /// Log/snapshot file names under `dir` for server `index`.
  [[nodiscard]] static std::string log_path_for(const std::string& dir,
                                                std::uint32_t index);
  [[nodiscard]] static std::string snap_path_for(const std::string& dir,
                                                 std::uint32_t index);

 private:
  void replay();

  options opt_;
  std::uint32_t index_;
  std::string snap_path_;
  wal log_;
  recovered_state rec_;
  /// Appends requested since the last snapshot attempt, written or not.
  std::uint64_t since_snapshot_{0};
  /// Size of the last committed snapshot file; 0 when there is none.
  std::uint64_t snap_bytes_{0};

  /// The log's own rows (records, bytes, fsyncs) are counted by log_.
  struct persist_metrics {
    obs::counter* snapshots{nullptr};
    obs::counter* torn_tail_truncations{nullptr};
    obs::histogram* replay_ns{nullptr};
    obs::histogram* snapshot_ns{nullptr};
  };
  persist_metrics pm_;
};

}  // namespace fastreg::persist
