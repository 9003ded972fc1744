// CRC-framed append-only op log + atomic per-object snapshot files: the
// on-disk primitives behind a store server's durable state.
//
// Log format: a sequence of records, each framed as
//
//   u32 payload_len | u32 crc32(payload) | payload
//
// with the payload encoded by common/serialization.h (little-endian):
//
//   u8 kind | u64 epoch | kind-specific fields
//     op / seed:    u64 object | i64 ts | i32 wid | string val |
//                   string prev | bytes sig
//     epoch_mark:   u32 n | n x u64 fenced objects
//
// A record is appended AFTER the server applied the state change, so a
// torn tail (crash mid-append) only loses suffix state the crash model
// already tolerates. load() stops at the first frame that is incomplete
// or fails its CRC, reports why, and (repair mode) truncates the file to
// the last valid frame so the next append continues a clean log.
//
// Each append encodes the frame (an 8-byte header placeholder, then the
// payload) into one buffer the wal reuses, patches length and CRC into the
// header, and issues one write.
//
// Snapshot format (separate file, rewritten atomically via tmp+rename):
//
//   u32 magic "FRSN" | u32 version | u32 payload_len | u32 crc32(payload)
//   | payload = u64 epoch | u32 count | count x (u64 object | i64 ts |
//                i32 wid | string val | string prev | bytes sig)
//
// snapshot_writer streams a snapshot in bounded memory; the bytes are the
// same as encoding the whole file at once. It writes the header with
// placeholder payload_len/crc to `<path>.tmp`, then encodes each object
// into a fixed-size buffer, extending a running CRC and writing the buffer
// out whenever it fills. The caller declares `count` up front because it
// sits inside the CRC'd payload. commit() then, in order: writes the last
// buffer, patches payload_len and crc into the header, fsyncs the tmp,
// closes it, renames it over `path`, and fsyncs the directory so the
// rename itself is durable. The fsyncs are skipped under fsync=never.
// Any failure leaves `path` as it was and removes the tmp; only a
// successful commit lets the caller truncate the log the snapshot covers.
//
// A snapshot that fails validation is REJECTED with a diagnostic (the
// server starts from the log alone, or empty); it is never partially
// applied.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "persist/options.h"
#include "registers/automaton.h"

namespace fastreg::persist {

/// CRC-32 (IEEE 802.3, reflected), the frame checksum. `prev` chains:
/// crc32(b, crc32(a)) == crc32(a followed by b).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t prev = 0);

struct log_record {
  enum class kind : std::uint8_t { op = 1, seed = 2, epoch_mark = 3 };
  kind k{kind::op};
  epoch_t epoch{k_initial_epoch};
  /// op / seed only.
  object_id obj{0};
  register_snapshot snap{};
  /// epoch_mark only: objects fenced (set aside for migration) at the
  /// install; replay drops their recovered state -- the new generation
  /// re-seeds them through records appended after the mark.
  std::vector<object_id> fenced{};

  friend bool operator==(const log_record&, const log_record&) = default;
};

struct wal_load_result {
  std::vector<log_record> records{};
  /// Prefix of the file covered by valid frames.
  std::uint64_t valid_bytes{0};
  /// Bytes past the last valid frame (torn tail or corrupt record).
  std::uint64_t dropped_bytes{0};
  /// Human-readable reason the scan stopped early; empty on a clean read.
  std::string warning{};

  [[nodiscard]] bool truncated() const { return dropped_bytes > 0; }
};

/// The append side of one server's op log. A failed write or fsync is
/// logged and closes the log, so nothing is appended after data that may
/// not be on disk; it is never fatal: a server that cannot persist keeps
/// serving (it degrades to the in-memory-only behavior the crash budget
/// covers). Records, bytes and fsyncs are counted only when they succeed,
/// in the fastreg_persist_{log_records,log_bytes,fsyncs}_total rows that
/// carry `metric_labels` (e.g. `node="s1"`).
class wal {
 public:
  wal(std::string path, fsync_policy policy, std::uint64_t fsync_interval_ms,
      std::string_view metric_labels);
  ~wal();
  wal(const wal&) = delete;
  wal& operator=(const wal&) = delete;

  void append(const log_record& rec);
  /// An op or seed record, encoded straight from `s` (no log_record copy).
  void append(log_record::kind k, epoch_t epoch, object_id obj,
              const register_snapshot& s);
  /// Forces an fsync now (policy-independent; used by tests).
  void sync();
  /// Empties the log (the snapshot that was just written supersedes it).
  /// A failed truncate keeps bytes(): the records are still on disk.
  void reset();
  /// Bytes of records in the file since the last reset(): the valid
  /// prefix it held when opened (restore_bytes) plus every appended frame.
  [[nodiscard]] std::uint64_t bytes() const { return file_bytes_; }
  /// Counts the valid prefix a replay of the file found (wal_load_result's
  /// valid_bytes) as bytes().
  void restore_bytes(std::uint64_t valid_bytes) { file_bytes_ = valid_bytes; }

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Scans `path` front to back. With `repair`, a file with a torn or
  /// corrupt tail is truncated on disk to its valid prefix (the contract
  /// "a stopped server rejoins from the last valid CRC frame").
  [[nodiscard]] static wal_load_result load(const std::string& path,
                                            bool repair);

 private:
  /// Patches frame_'s header, writes the frame, counts it, maybe syncs.
  void write_frame();
  void maybe_sync();
  /// Logs errno for the failed `what` and closes the log for good.
  void close_on_error(const char* what);

  std::string path_;
  fsync_policy policy_;
  std::uint64_t fsync_interval_ms_;
  int fd_{-1};
  obs::counter& records_;
  obs::counter& bytes_;
  obs::counter& fsyncs_;
  /// steady_clock nanoseconds of the last fsync (interval policy).
  std::uint64_t last_sync_ns_{0};
  /// Un-synced bytes since the last fsync (skip no-op fsyncs).
  std::uint64_t dirty_bytes_{0};
  /// See bytes().
  std::uint64_t file_bytes_{0};
  /// The frame being appended, reused across appends.
  std::vector<std::uint8_t> frame_;
};

struct snapshot_data {
  epoch_t epoch{k_initial_epoch};
  std::vector<std::pair<object_id, register_snapshot>> objects{};
};

/// Streams one snapshot of exactly `count` objects to `path` (see the
/// file comment for the commit order). Write errors are sticky: later
/// add()s are ignored and commit() reports the first one.
class snapshot_writer {
 public:
  /// Bytes buffered before they are written out (an object larger than
  /// this still goes out whole).
  static constexpr std::size_t k_buffer_bytes = 256 * 1024;

  snapshot_writer(std::string path, fsync_policy policy, epoch_t epoch,
                  std::uint32_t count);
  /// Removes the tmp file unless commit() renamed it.
  ~snapshot_writer();
  snapshot_writer(const snapshot_writer&) = delete;
  snapshot_writer& operator=(const snapshot_writer&) = delete;

  void add(object_id obj, const register_snapshot& s);
  /// Replaces `path` with the snapshot. Returns false and fills `err`
  /// when any step failed; `path` is then untouched unless only the
  /// final directory fsync failed.
  bool commit(std::string* err);
  /// Bytes written so far, header included: after a successful commit(),
  /// the size of the snapshot file.
  [[nodiscard]] std::uint64_t bytes() const { return written_; }

 private:
  void flush();
  void fail(const char* what, const std::string& file);

  std::string path_;
  std::string tmp_;
  fsync_policy policy_;
  std::uint32_t count_;
  std::uint32_t added_{0};
  int fd_{-1};
  bool renamed_{false};
  std::string error_{};
  std::vector<std::uint8_t> buf_;
  /// Bytes written to the tmp so far, header included.
  std::uint64_t written_{0};
  /// Running CRC of the payload written so far.
  std::uint32_t crc_{0};
};

/// Atomically replaces `path` with the encoded snapshot, through
/// snapshot_writer. Returns false and fills `err` on I/O failure.
bool write_snapshot_file(const std::string& path, const snapshot_data& snap,
                         fsync_policy policy, std::string* err);

/// Loads and validates a snapshot file. nullopt with empty `err` when the
/// file does not exist; nullopt with a diagnostic in `err` when it exists
/// but fails validation (bad magic/version/CRC/truncation) -- the caller
/// must reject it wholesale.
[[nodiscard]] std::optional<snapshot_data> load_snapshot_file(
    const std::string& path, std::string* err);

}  // namespace fastreg::persist
