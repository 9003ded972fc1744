// Durability and crash-recovery suite (src/persist + the store's rejoin
// path): the CRC, WAL framing round-trips, golden bytes for the frozen log
// and snapshot formats, streamed snapshots larger than the writer's
// buffer, a failed snapshot keeping the log, the snapshot trigger sized by
// the last snapshot and the replay bound it keeps, a failed append closing
// the log, torn-tail truncation at the last valid CRC frame,
// corrupt-record and corrupt-snapshot rejection with useful diagnostics,
// every truncation and bit flip of the golden files, the fsync-policy
// matrix, epoch fencing of stale recovered state, and the end-to-end
// acceptance schedule -- a server killed in the middle of a Zipf-keyed
// load restarts, replays snapshot + log tail, rejoins, and every per-key
// history still verifies, on both transports. Last, the registry rows
// benchmark/ reads: a durable TCP workload must move each of them, and the
// log's rows must match what the log files hold.
//
// "Crash" here is in-process (world::crash / node::stop), so the log
// bytes survive in the page cache regardless of fsync policy -- which is
// exactly what makes the recovery tests deterministic under fsync=never.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "benchutil/sim_driver.h"
#include "benchutil/stress.h"
#include "benchutil/workload.h"
#include "common/check.h"
#include "common/rng.h"
#include "crypto/sig.h"
#include "obs/metrics.h"
#include "persist/durable.h"
#include "persist/wal.h"
#include "registers/fast_swmr.h"
#include "store/server.h"
#include "store/sim_store.h"
#include "store/tcp_store.h"
#include "store_test_util.h"

namespace fastreg::persist {
namespace {

/// Fresh directory under the system temp root, removed on destruction.
class temp_dir {
 public:
  explicit temp_dir(const std::string& tag) {
    static std::atomic<std::uint64_t> counter{0};
    dir_ = std::filesystem::temp_directory_path() /
           ("fastreg_persist_" + tag + "_" + std::to_string(::getpid()) +
            "_" + std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(dir_);
  }
  ~temp_dir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

register_snapshot snap(ts_t ts, std::int32_t wid, std::string val) {
  register_snapshot s;
  s.ts = ts;
  s.wid = wid;
  s.val = std::move(val);
  return s;
}

log_record op_rec(epoch_t epoch, object_id obj, register_snapshot s) {
  log_record r;
  r.k = log_record::kind::op;
  r.epoch = epoch;
  r.obj = obj;
  r.snap = std::move(s);
  return r;
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Flips one byte at `offset` in place.
void corrupt_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

/// The whole file as lowercase hex.
std::string file_hex(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string out;
  char c = 0;
  while (in.get(c)) {
    static constexpr char k_digits[] = "0123456789abcdef";
    const auto b = static_cast<unsigned char>(c);
    out += k_digits[b >> 4];
    out += k_digits[b & 0xf];
  }
  return out;
}

using object_list = std::vector<std::pair<object_id, register_snapshot>>;

/// Streams `objs` through server_durability's snapshot entry point, the
/// way store::server does.
void write_snap(server_durability& d, epoch_t epoch, const object_list& objs) {
  d.write_snapshot(epoch, static_cast<std::uint32_t>(objs.size()),
                   [&](snapshot_writer& w) {
                     for (const auto& [obj, s] : objs) w.add(obj, s);
                   });
}

/// The textbook bit-at-a-time CRC-32, the reference crc32 must match.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xffffffffu;
  for (const auto b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? (c >> 1) ^ 0xedb88320u : c >> 1;
    }
  }
  return ~c;
}

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// The registry label of server `index`'s rows.
std::string node_label(std::uint32_t index) {
  return "node=\"" + to_string(server_id(index)) + "\"";
}

/// Current value of the counter `name{labels}`.
std::uint64_t counter_value(const std::string& name,
                            const std::string& labels) {
  return obs::registry::instance().get_counter(name, labels).value();
}

// ------------------------------------------------------------------ CRC --

TEST(Crc32, MatchesTheIeeeCheckValueAndChains) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(as_bytes(check)), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
  const std::string text = "slicing-by-8 must chain across any split point";
  const auto all = as_bytes(text);
  for (std::size_t cut = 0; cut <= all.size(); ++cut) {
    EXPECT_EQ(crc32(all.subspan(cut), crc32(all.first(cut))), crc32(all))
        << "split at " << cut;
  }
}

TEST(Crc32, MatchesTheBitwiseReferenceOnRandomBuffers) {
  rng r(2026);
  std::vector<std::uint8_t> pool(8 * 1024);
  for (auto& b : pool) b = static_cast<std::uint8_t>(r.next());
  const std::span<const std::uint8_t> all(pool);
  for (int i = 0; i < 10'000; ++i) {
    const auto off = r.below(4096);
    const auto len = r.below(4097);
    const auto buf = all.subspan(off, len);
    ASSERT_EQ(crc32(buf), crc32_bitwise(buf))
        << "offset " << off << " length " << len;
  }
}

// ------------------------------------------------------------- WAL unit --

TEST(Wal, RoundTripsOpSeedAndEpochMarkRecords) {
  temp_dir td("roundtrip");
  const std::string path = td.path() + "/server_0.log";
  std::vector<log_record> want;
  want.push_back(op_rec(0, 11, snap(3, 1, "a")));
  {
    log_record seed = op_rec(0, 12, snap(7, 0, "b"));
    seed.k = log_record::kind::seed;
    seed.snap.prev = "prev";
    seed.snap.sig = {1, 2, 3};
    want.push_back(seed);
  }
  {
    log_record mark;
    mark.k = log_record::kind::epoch_mark;
    mark.epoch = 1;
    mark.fenced = {11, 99};
    want.push_back(mark);
  }
  {
    const std::string lbl = node_label(0);
    const auto records0 =
        counter_value("fastreg_persist_log_records_total", lbl);
    const auto bytes0 = counter_value("fastreg_persist_log_bytes_total", lbl);
    wal w(path, fsync_policy::never, 0, lbl);
    for (const auto& r : want) w.append(r);
    EXPECT_EQ(counter_value("fastreg_persist_log_records_total", lbl) -
                  records0,
              want.size());
    EXPECT_EQ(counter_value("fastreg_persist_log_bytes_total", lbl) - bytes0,
              file_size(path));
  }
  const auto got = wal::load(path, /*repair=*/false);
  EXPECT_EQ(got.records, want);
  EXPECT_FALSE(got.truncated()) << got.warning;
  EXPECT_EQ(got.valid_bytes, file_size(path));
}

TEST(Wal, TornTailTruncatedAtLastValidCrcFrame) {
  temp_dir td("torn");
  const std::string path = td.path() + "/server_0.log";
  {
    wal w(path, fsync_policy::never, 0, node_label(0));
    for (int i = 0; i < 3; ++i) {
      w.append(op_rec(0, 5, snap(i + 1, 0, "v" + std::to_string(i))));
    }
  }
  const std::uint64_t clean = file_size(path);
  // A frame header promising 100 payload bytes, followed by only 4: the
  // shape a crash mid-append leaves behind.
  append_raw(path, std::string("\x64\x00\x00\x00", 4) +
                       std::string(8, '\xab'));
  auto res = wal::load(path, /*repair=*/false);
  EXPECT_EQ(res.records.size(), 3u);
  EXPECT_TRUE(res.truncated());
  EXPECT_EQ(res.valid_bytes, clean);
  EXPECT_NE(res.warning.find("torn tail"), std::string::npos)
      << res.warning;

  // Repair mode truncates the file to the valid prefix; the next load is
  // clean and a new wal appends right after the surviving records.
  res = wal::load(path, /*repair=*/true);
  EXPECT_EQ(res.records.size(), 3u);
  EXPECT_EQ(file_size(path), clean);
  const auto again = wal::load(path, /*repair=*/false);
  EXPECT_FALSE(again.truncated()) << again.warning;
  EXPECT_EQ(again.records.size(), 3u);
}

/// Caps this process's file size (RLIMIT_FSIZE) at `bytes` with SIGXFSZ
/// ignored, so a write crossing the cap is cut short and the next one
/// fails with EFBIG; both are restored on destruction.
class file_size_cap {
 public:
  explicit file_size_cap(std::uint64_t bytes) {
    struct sigaction ign{};
    ign.sa_handler = SIG_IGN;
    sigemptyset(&ign.sa_mask);
    ::sigaction(SIGXFSZ, &ign, &old_sa_);
    ::getrlimit(RLIMIT_FSIZE, &old_lim_);
    rlimit lim = old_lim_;
    lim.rlim_cur = static_cast<rlim_t>(bytes);
    ok_ = ::setrlimit(RLIMIT_FSIZE, &lim) == 0;
  }
  ~file_size_cap() {
    ::setrlimit(RLIMIT_FSIZE, &old_lim_);
    ::sigaction(SIGXFSZ, &old_sa_, nullptr);
  }
  file_size_cap(const file_size_cap&) = delete;
  file_size_cap& operator=(const file_size_cap&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }

 private:
  struct sigaction old_sa_{};
  rlimit old_lim_{};
  bool ok_{false};
};

TEST(Wal, WriteFailureClosesTheLogAndKeepsTheFramesBeforeIt) {
  // A failed append: the file-size cap cuts the 4th frame in half, and
  // the write of its rest fails (EFBIG, as ENOSPC would). The log must
  // close, count only the 3 frames that reached the file, drop every
  // later append, and load back as those 3 frames once the torn half is
  // repaired away.
  temp_dir td("write_fail");
  const std::string path = td.path() + "/server_0.log";
  const std::string lbl = node_label(0);
  const auto rec = [](int i) {
    return op_rec(0, 5, snap(i + 1, 0, "v" + std::to_string(i)));
  };
  std::uint64_t frame = 0;  // every rec(i) encodes to the same size
  {
    const std::string probe = td.path() + "/probe.log";
    { wal(probe, fsync_policy::never, 0, lbl).append(rec(0)); }
    frame = file_size(probe);
  }
  ASSERT_GT(frame, 0u);
  const auto records0 = counter_value("fastreg_persist_log_records_total", lbl);
  const auto bytes0 = counter_value("fastreg_persist_log_bytes_total", lbl);
  {
    file_size_cap cap(frame * 7 / 2);
    ASSERT_TRUE(cap.ok());
    wal w(path, fsync_policy::never, 0, lbl);
    for (int i = 0; i < 6; ++i) w.append(rec(i));
  }
  EXPECT_EQ(counter_value("fastreg_persist_log_records_total", lbl) - records0,
            3u);
  EXPECT_EQ(counter_value("fastreg_persist_log_bytes_total", lbl) - bytes0,
            3 * frame);
  EXPECT_EQ(file_size(path), frame * 7 / 2);  // appends 5 and 6 dropped

  const auto res = wal::load(path, /*repair=*/true);
  ASSERT_EQ(res.records.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(res.records[i], rec(i)) << i;
  EXPECT_NE(res.warning.find("torn tail"), std::string::npos) << res.warning;
  EXPECT_EQ(file_size(path), 3 * frame);
}

TEST(Wal, ResetZeroesTheByteCountOnlyWhenTheTruncateSucceeds) {
  temp_dir td("reset_bytes");
  const std::string lbl = node_label(0);
  const auto rec = op_rec(0, 5, snap(1, 0, "v"));
  {
    const std::string path = td.path() + "/server_0.log";
    wal w(path, fsync_policy::never, 0, lbl);
    w.append(rec);
    w.append(rec);
    EXPECT_EQ(w.bytes(), file_size(path));
    w.reset();
    EXPECT_EQ(w.bytes(), 0u);
    EXPECT_EQ(file_size(path), 0u);
  }
  // A character device takes the appends but cannot be truncated: the
  // count must keep the bytes a failed truncate left behind.
  const std::string dev = td.path() + "/device.log";
  std::filesystem::create_symlink("/dev/null", dev);
  wal w(dev, fsync_policy::never, 0, lbl);
  w.append(rec);
  const std::uint64_t bytes = w.bytes();
  ASSERT_GT(bytes, 0u);
  w.reset();
  EXPECT_EQ(w.bytes(), bytes);
}

TEST(Wal, CorruptRecordRejectedWithOffsetAndCrcDiagnostic) {
  temp_dir td("corrupt");
  const std::string path = td.path() + "/server_0.log";
  std::uint64_t first_frame_end = 0;
  {
    wal w(path, fsync_policy::never, 0, node_label(0));
    w.append(op_rec(0, 5, snap(1, 0, "good")));
    first_frame_end = file_size(path);
    w.append(op_rec(0, 5, snap(2, 0, "bad-to-be")));
    w.append(op_rec(0, 5, snap(3, 0, "unreachable")));
  }
  // Flip a payload byte of the SECOND record: everything before it loads,
  // everything after it is unreachable (no resynchronization by design --
  // a log whose middle lies cannot be trusted past the lie).
  corrupt_byte(path, first_frame_end + 12);
  const auto res = wal::load(path, /*repair=*/false);
  EXPECT_EQ(res.records.size(), 1u);
  EXPECT_TRUE(res.truncated());
  EXPECT_EQ(res.valid_bytes, first_frame_end);
  EXPECT_NE(res.warning.find("CRC mismatch"), std::string::npos)
      << res.warning;
  EXPECT_NE(res.warning.find(std::to_string(first_frame_end)),
            std::string::npos)
      << "diagnostic should name the bad record's offset: " << res.warning;
}

TEST(Wal, SnapshotRoundTripsAndCorruptionIsRejectedWholesale) {
  temp_dir td("snap");
  const std::string path = td.path() + "/server_0.snap";
  snapshot_data want;
  want.epoch = 2;
  want.objects.emplace_back(7, snap(9, 1, "x"));
  want.objects.emplace_back(8, snap(4, 0, "y"));
  std::string err;
  ASSERT_TRUE(write_snapshot_file(path, want, fsync_policy::never, &err))
      << err;
  auto got = load_snapshot_file(path, &err);
  ASSERT_TRUE(got.has_value()) << err;
  EXPECT_EQ(got->epoch, want.epoch);
  EXPECT_EQ(got->objects, want.objects);

  corrupt_byte(path, file_size(path) - 2);  // payload byte
  got = load_snapshot_file(path, &err);
  EXPECT_FALSE(got.has_value());
  EXPECT_NE(err.find("CRC"), std::string::npos) << err;

  // Missing file: nullopt with NO diagnostic (the fresh-server case).
  err = "sentinel";
  got = load_snapshot_file(td.path() + "/absent.snap", &err);
  EXPECT_FALSE(got.has_value());
  EXPECT_TRUE(err.empty());
}

// The on-disk format is frozen: these bytes were produced by the
// whole-buffer encoder that preceded the streaming one, and files from
// either must load in the other.
register_snapshot golden_a() { return snap(9, 1, "x"); }
register_snapshot golden_b() {
  auto s = snap(4, 0, "yz");
  s.prev = "p";
  s.sig = {0xde, 0xad};
  return s;
}

/// The golden snapshot and log files; the sweeps below decode them as
/// golden_snapshot() and golden_log_records().
constexpr const char* k_golden_snap_hex =
    "4652534e0100000052000000350eb87f03000000000000000200000007000000"
    "0000000009000000000000000100000001000000780000000000000000080706"
    "050403020104000000000000000000000002000000797a010000007002000000"
    "dead";
constexpr const char* k_golden_log_hex =
    "2a00000068cb31e10102000000000000000b0000000000000009000000000000"
    "0001000000010000007800000000000000002e0000001ee6f875020200000000"
    "0000000c0000000000000004000000000000000000000002000000797a010000"
    "007002000000dead1d0000000453f362030300000000000000020000000b0000"
    "00000000006300000000000000";

snapshot_data golden_snapshot() {
  return {3, {{7, golden_a()}, {0x0102030405060708ull, golden_b()}}};
}

std::vector<log_record> golden_log_records() {
  log_record seed = op_rec(2, 12, golden_b());
  seed.k = log_record::kind::seed;
  log_record mark;
  mark.k = log_record::kind::epoch_mark;
  mark.epoch = 3;
  mark.fenced = {11, 99};
  return {op_rec(2, 11, golden_a()), seed, mark};
}

TEST(Wal, SnapshotBytesMatchTheGoldenEncoding) {
  temp_dir td("golden_snap");
  options o;
  o.dir = td.path();
  o.fsync = fsync_policy::never;
  server_durability d(o, 0);
  write_snap(d, 3, {{7, golden_a()}, {0x0102030405060708ull, golden_b()}});
  EXPECT_EQ(file_hex(d.snap_path()), k_golden_snap_hex);
}

TEST(Wal, LogRecordBytesMatchTheGoldenEncoding) {
  temp_dir td("golden_log");
  options o;
  o.dir = td.path();
  o.fsync = fsync_policy::never;
  server_durability d(o, 0);
  d.append_op(2, 11, golden_a());
  d.append_seed(2, 12, golden_b());
  d.append_epoch_mark(3, {11, 99});
  EXPECT_EQ(file_hex(d.log_path()), k_golden_log_hex);
}

TEST(Wal, SnapshotLargerThanTheWriterBufferStreamsTheSameBytes) {
  temp_dir td("snap_big");
  snapshot_data want;
  want.epoch = 5;
  for (object_id obj = 0; obj < 900; ++obj) {
    want.objects.emplace_back(
        obj, snap(static_cast<ts_t>(obj + 1), static_cast<std::int32_t>(obj % 3),
                  std::string(1000, static_cast<char>('a' + obj % 26))));
  }
  // One object larger than the whole buffer on its own.
  want.objects.emplace_back(
      1000, snap(1, 0, std::string(snapshot_writer::k_buffer_bytes + 17, 'z')));
  const std::string file = td.path() + "/whole.snap";
  std::string err;
  ASSERT_TRUE(write_snapshot_file(file, want, fsync_policy::never, &err))
      << err;
  EXPECT_GT(file_size(file), 3 * snapshot_writer::k_buffer_bytes);

  options o;
  o.dir = td.path();
  o.fsync = fsync_policy::never;
  server_durability d(o, 0);
  write_snap(d, want.epoch, want.objects);
  EXPECT_EQ(file_hex(d.snap_path()), file_hex(file));

  const auto got = load_snapshot_file(d.snap_path(), &err);
  ASSERT_TRUE(got.has_value()) << err;
  EXPECT_EQ(got->epoch, want.epoch);
  EXPECT_EQ(got->objects, want.objects);
}

// -------------------------------------------------- durability replay --

TEST(Durability, ReplaysSnapshotThenLogTailKeepingLatestPerObject) {
  temp_dir td("replay");
  options o;
  o.dir = td.path();
  o.fsync = fsync_policy::never;
  o.snapshot_every = 1000;  // snapshots only when asked below
  {
    server_durability d(o, 0);
    EXPECT_FALSE(d.recovered().found);
    d.append_seed(0, 1, snap(1, 0, "seeded"));
    d.append_op(0, 1, snap(2, 0, "old"));
    d.append_op(0, 2, snap(5, 1, "keep"));
    write_snap(d, 0, {{1, snap(2, 0, "old")}, {2, snap(5, 1, "keep")}});
    d.append_op(0, 1, snap(3, 0, "tail-wins"));
  }
  server_durability d2(o, 0);
  const auto& rec = d2.recovered();
  ASSERT_TRUE(rec.found);
  EXPECT_EQ(rec.epoch, 0u);
  ASSERT_EQ(rec.objects.size(), 2u);
  EXPECT_EQ(rec.objects.at(1).val, "tail-wins");
  EXPECT_EQ(rec.objects.at(2).val, "keep");
}

TEST(Durability, TornLogTailRepairedOnConstruction) {
  temp_dir td("replay_torn");
  options o;
  o.dir = td.path();
  o.fsync = fsync_policy::never;
  {
    server_durability d(o, 3);
    d.append_op(0, 1, snap(1, 0, "a"));
    d.append_op(0, 2, snap(2, 0, "b"));
  }
  const std::string log = server_durability::log_path_for(td.path(), 3);
  const std::uint64_t clean = file_size(log);
  append_raw(log, "torn-garbage-tail");
  const auto truncations = [] {
    return counter_value("fastreg_persist_torn_tail_truncations_total",
                         node_label(3));
  };
  const std::uint64_t before = truncations();
  server_durability d2(o, 3);
  ASSERT_TRUE(d2.recovered().found);
  EXPECT_EQ(d2.recovered().objects.size(), 2u);
  EXPECT_EQ(file_size(log), clean)
      << "replay should repair-truncate the torn tail on disk";
  EXPECT_EQ(truncations() - before, 1u);
}

TEST(Durability, FailedSnapshotKeepsTheLogAndRecoversEveryRecord) {
  temp_dir td("snap_fail");
  options o;
  o.dir = td.path();
  o.fsync = fsync_policy::every_op;
  o.snapshot_every = 4;
  const std::string log = server_durability::log_path_for(td.path(), 0);
  const std::string snap_path =
      server_durability::snap_path_for(td.path(), 0);
  // A directory where the tmp file goes: opening it for writing fails
  // even as root.
  std::filesystem::create_directories(snap_path + ".tmp");
  object_list state;
  {
    server_durability d(o, 0);
    for (object_id obj = 1; obj <= 10; ++obj) {
      state.emplace_back(obj, snap(static_cast<ts_t>(obj), 0,
                                   "v" + std::to_string(obj)));
      d.append_op(0, obj, state.back().second);
      if (d.snapshot_due()) write_snap(d, 0, state);
    }
  }
  EXPECT_EQ(wal::load(log, /*repair=*/false).records.size(), state.size())
      << "a failed snapshot must not truncate the log";
  EXPECT_FALSE(std::filesystem::exists(snap_path));
  {
    server_durability d(o, 0);
    ASSERT_TRUE(d.recovered().found);
    ASSERT_EQ(d.recovered().objects.size(), state.size());
    for (const auto& [obj, s] : state) {
      EXPECT_EQ(d.recovered().objects.at(obj), s) << "object " << obj;
    }
    // Once the obstruction is gone the next due snapshot commits and
    // supersedes the log.
    std::filesystem::remove(snap_path + ".tmp");
    for (int i = 0; i < 4; ++i) d.append_op(0, 1, state.front().second);
    ASSERT_TRUE(d.snapshot_due());
    write_snap(d, 0, state);
    EXPECT_EQ(file_size(log), 0u);
    EXPECT_TRUE(std::filesystem::exists(snap_path));
    EXPECT_FALSE(std::filesystem::exists(snap_path + ".tmp"));
  }
}

char kib_fill(object_id obj) { return static_cast<char>('a' + obj % 26); }

/// `n` objects holding 1 KiB values (the benchmark's durable value size).
object_list kib_state(object_id n) {
  object_list out;
  for (object_id obj = 1; obj <= n; ++obj) {
    out.emplace_back(obj, snap(1, 0, std::string(1024, kib_fill(obj))));
  }
  return out;
}

TEST(Durability, SnapshotWaitsUntilTheLogOutgrowsTheLastSnapshot) {
  temp_dir td("snap_due");
  options o;
  o.dir = td.path();
  o.fsync = fsync_policy::never;
  o.snapshot_every = 4;
  const std::string log = server_durability::log_path_for(td.path(), 0);
  const std::string snap_path =
      server_durability::snap_path_for(td.path(), 0);
  const object_list state = kib_state(16);
  server_durability d(o, 0);
  // No snapshot yet: the record floor alone decides.
  for (std::uint64_t i = 1; i <= 4; ++i) {
    d.append_op(0, 1, state[0].second);
    EXPECT_EQ(d.snapshot_due(), i == 4) << "append " << i;
  }
  write_snap(d, 0, state);
  ASSERT_EQ(file_size(log), 0u);
  const std::uint64_t snap_bytes = file_size(snap_path);
  std::uint64_t first_due = 0;
  for (std::uint64_t i = 1; i <= 40; ++i) {
    const auto& [obj, s] = state[i % state.size()];
    d.append_op(0, obj, s);
    EXPECT_EQ(d.snapshot_due(), i >= 4 && file_size(log) >= snap_bytes)
        << "append " << i;
    if (first_due == 0 && d.snapshot_due()) first_due = i;
  }
  // 16 objects of 1 KiB outweigh 4 records of 1 KiB.
  EXPECT_GT(first_due, 4u);
}

TEST(Durability, ReopenRestoresBothByteCountsAndDiscardZeroesThem) {
  temp_dir td("snap_reopen");
  options o;
  o.dir = td.path();
  o.fsync = fsync_policy::never;
  o.snapshot_every = 4;
  const std::string log = server_durability::log_path_for(td.path(), 0);
  const std::string snap_path =
      server_durability::snap_path_for(td.path(), 0);
  const object_list state = kib_state(16);
  const object_id obj = state.front().first;
  const register_snapshot& s = state.front().second;
  // Appends until a snapshot is due; returns how many it took.
  const auto appends_until_due = [&](server_durability& d) {
    std::uint64_t n = 0;
    for (; n < 100 && !d.snapshot_due(); ++n) d.append_op(0, obj, s);
    return n;
  };
  std::uint64_t rec_bytes = 0;
  std::uint64_t snap_bytes = 0;
  {
    server_durability d(o, 0);
    d.append_op(0, obj, s);
    rec_bytes = file_size(log);
    EXPECT_EQ(appends_until_due(d), 3u);
    write_snap(d, 0, state);
    snap_bytes = file_size(snap_path);
    // Past the record floor, short of the snapshot's size.
    for (int i = 0; i < 12; ++i) d.append_op(0, obj, s);
    ASSERT_LT(file_size(log), snap_bytes);
    ASSERT_FALSE(d.snapshot_due());
  }
  // Records still needed for the log to reach the snapshot's size.
  const auto to_reach = [&](std::uint64_t log_bytes) {
    return (snap_bytes - log_bytes + rec_bytes - 1) / rec_bytes;
  };
  ASSERT_GT(to_reach(0), o.snapshot_every);
  {
    // The log's 12 records count toward the snapshot's size.
    server_durability d(o, 0);
    EXPECT_EQ(appends_until_due(d),
              std::max(o.snapshot_every, to_reach(12 * rec_bytes)));
    write_snap(d, 0, state);
    ASSERT_EQ(file_size(log), 0u);
  }
  {
    // So does the snapshot file's size: the record floor is not enough.
    server_durability d(o, 0);
    EXPECT_EQ(appends_until_due(d), to_reach(0));
  }
  {
    server_durability d(o, 0);
    ASSERT_TRUE(d.recovered().found);
    d.discard_recovered();
    EXPECT_EQ(appends_until_due(d), o.snapshot_every);
    write_snap(d, 0, state);
  }
  {
    // A snapshot that fails validation does not count.
    corrupt_byte(snap_path, file_size(snap_path) - 1);
    server_durability d(o, 0);
    EXPECT_EQ(appends_until_due(d), o.snapshot_every);
  }
}

TEST(Durability, LogStaysWithinTheReplayBound) {
  temp_dir td("replay_bound");
  options o;
  o.dir = td.path();
  o.fsync = fsync_policy::never;
  o.snapshot_every = 8;
  const std::string log = server_durability::log_path_for(td.path(), 0);
  const std::string snap_path =
      server_durability::snap_path_for(td.path(), 0);
  server_durability d(o, 0);
  std::map<object_id, register_snapshot> state;
  std::uint64_t rec_bytes = 0;
  std::uint64_t snap_bytes = 0;
  std::uint64_t floor_snapshots = 0;
  std::uint64_t size_snapshots = 0;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    // The object set grows, so the snapshot's size overtakes the floor.
    const object_id n = std::min<std::uint64_t>(96, 1 + i / 16);
    const object_id obj = 1 + (i * 7) % n;
    state[obj] = snap(static_cast<ts_t>(i + 1), 0,
                      std::string(1024, kib_fill(obj)));
    d.append_op(0, obj, state[obj]);
    if (rec_bytes == 0) rec_bytes = file_size(log);
    ASSERT_LE(file_size(log),
              std::max(o.snapshot_every * rec_bytes, snap_bytes) + rec_bytes)
        << "append " << i;
    if (d.snapshot_due()) {
      if (snap_bytes < o.snapshot_every * rec_bytes) {
        ++floor_snapshots;
      } else {
        ++size_snapshots;
      }
      write_snap(d, 0, object_list(state.begin(), state.end()));
      snap_bytes = file_size(snap_path);
    }
  }
  EXPECT_GT(floor_snapshots, 0u);
  EXPECT_GT(size_snapshots, 0u);
}

TEST(Durability, ClosedLogCountsNoRecordsBytesOrFsyncs) {
  // A directory where the log goes: opening it for writing fails, so the
  // log is closed from the start and every append is dropped. The rows
  // count what reached the file, so none of them may move.
  temp_dir td("closed_log");
  options o;
  o.dir = td.path();
  o.fsync = fsync_policy::every_op;
  std::filesystem::create_directories(
      server_durability::log_path_for(td.path(), 0));
  const std::string lbl = node_label(0);
  const auto records0 = counter_value("fastreg_persist_log_records_total", lbl);
  const auto bytes0 = counter_value("fastreg_persist_log_bytes_total", lbl);
  const auto fsyncs0 = counter_value("fastreg_persist_fsyncs_total", lbl);
  server_durability d(o, 0);
  for (object_id obj = 1; obj <= 3; ++obj) {
    d.append_op(0, obj, snap(1, 0, "dropped"));
  }
  EXPECT_EQ(counter_value("fastreg_persist_log_records_total", lbl), records0);
  EXPECT_EQ(counter_value("fastreg_persist_log_bytes_total", lbl), bytes0);
  EXPECT_EQ(counter_value("fastreg_persist_fsyncs_total", lbl), fsyncs0);
}

TEST(Durability, EpochMarkDropsFencedObjectsAndAdvancesEpoch) {
  temp_dir td("mark");
  options o;
  o.dir = td.path();
  o.fsync = fsync_policy::never;
  {
    server_durability d(o, 0);
    d.append_op(0, 1, snap(1, 0, "fenced-away"));
    d.append_op(0, 2, snap(2, 0, "carried"));
    d.append_epoch_mark(1, {1});
    d.append_seed(1, 1, snap(9, 0, "reseeded"));
  }
  server_durability d2(o, 0);
  const auto& rec = d2.recovered();
  ASSERT_TRUE(rec.found);
  EXPECT_EQ(rec.epoch, 1u);
  ASSERT_EQ(rec.objects.size(), 2u);
  EXPECT_EQ(rec.objects.at(1).val, "reseeded");
  EXPECT_EQ(rec.objects.at(2).val, "carried");
}

// --------------------------------------------------- corruption sweeps --
//
// Every truncation and every single-bit flip of the golden log and
// snapshot. Recovery may lose a damaged snapshot wholesale or a damaged
// log's tail, and nothing else.

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Calls fn(variant, at) for `golden` itself, each proper prefix of it
/// and each single-bit flip of it; `at` is the first damaged offset
/// (golden.size() when intact).
void for_each_damage(
    const std::vector<std::uint8_t>& golden,
    const std::function<void(const std::vector<std::uint8_t>&, std::size_t)>&
        fn) {
  for (std::size_t len = 0; len <= golden.size(); ++len) {
    fn({golden.begin(), golden.begin() + static_cast<std::ptrdiff_t>(len)},
       len);
  }
  for (std::size_t at = 0; at < golden.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bytes = golden;
      bytes[at] ^= static_cast<std::uint8_t>(1u << bit);
      fn(bytes, at);
    }
  }
}

/// How many of the log's frames end at or before offset `at`.
std::size_t frames_before(const std::vector<std::uint8_t>& log,
                          std::size_t at) {
  std::size_t n = 0;
  for (std::size_t pos = 0; pos + 4 <= log.size();) {
    const std::uint32_t len = log[pos] | log[pos + 1] << 8 |
                              log[pos + 2] << 16 |
                              static_cast<std::uint32_t>(log[pos + 3]) << 24;
    pos += 8 + len;
    if (pos > at) break;
    ++n;
  }
  return n;
}

/// What replay must recover from `snap` (null: none) then `log`.
recovered_state replayed(const snapshot_data* snap,
                         std::span<const log_record> log) {
  recovered_state st;
  if (snap != nullptr) {
    st.found = true;
    st.epoch = snap->epoch;
    for (const auto& [obj, s] : snap->objects) st.objects[obj] = s;
  }
  for (const auto& r : log) {
    st.found = true;
    st.epoch = std::max(st.epoch, r.epoch);
    if (r.k == log_record::kind::epoch_mark) {
      for (const auto obj : r.fenced) st.objects.erase(obj);
    } else {
      st.objects[r.obj] = r.snap;
    }
  }
  return st;
}

TEST(Wal, EveryTruncationAndBitFlipOfTheGoldenLogLoadsAPrefix) {
  const auto golden = from_hex(k_golden_log_hex);
  const auto records = golden_log_records();
  ASSERT_EQ(frames_before(golden, golden.size()), records.size());
  const log_record extra = op_rec(4, 13, snap(1, 0, "after"));
  temp_dir td("sweep_log");
  const std::string path = td.path() + "/log";
  for_each_damage(golden, [&](const auto& bytes, std::size_t at) {
    const std::string what = "damage at " + std::to_string(at) + " of " +
                             std::to_string(bytes.size()) + " bytes";
    write_bytes(path, bytes);
    std::vector<log_record> want(
        records.begin(),
        records.begin() +
            static_cast<std::ptrdiff_t>(frames_before(golden, at)));
    const auto got = wal::load(path, /*repair=*/true);
    ASSERT_EQ(got.records, want) << what;
    EXPECT_EQ(file_size(path), got.valid_bytes) << what;
    EXPECT_EQ(got.truncated(), got.valid_bytes < bytes.size()) << what;
    // The repaired log takes the next append as if never damaged.
    {
      wal w(path, fsync_policy::never, 0, node_label(0));
      w.append(extra);
    }
    want.push_back(extra);
    const auto again = wal::load(path, /*repair=*/false);
    EXPECT_EQ(again.records, want) << what;
    EXPECT_EQ(again.warning, "") << what;
  });
}

TEST(Wal, EveryTruncationAndBitFlipOfTheGoldenSnapshotIsRejected) {
  const auto golden = from_hex(k_golden_snap_hex);
  const auto want = golden_snapshot();
  temp_dir td("sweep_snap");
  const std::string path = td.path() + "/snap";
  for_each_damage(golden, [&](const auto& bytes, std::size_t at) {
    const std::string what = "damage at " + std::to_string(at) + " of " +
                             std::to_string(bytes.size()) + " bytes";
    write_bytes(path, bytes);
    std::string err;
    const auto got = load_snapshot_file(path, &err);
    if (at == golden.size()) {
      ASSERT_TRUE(got.has_value()) << err;
      EXPECT_EQ(got->epoch, want.epoch);
      EXPECT_EQ(got->objects, want.objects);
    } else {
      EXPECT_FALSE(got.has_value()) << what;
      EXPECT_NE(err, "") << what;
    }
  });
}

TEST(Durability, RecoveryFromADamagedGoldenLogOrSnapshotStaysOnTheSequence) {
  const auto log = from_hex(k_golden_log_hex);
  const auto snapshot = from_hex(k_golden_snap_hex);
  const auto records = golden_log_records();
  const auto snap_state = golden_snapshot();
  temp_dir td("sweep_recovery");
  options o;
  o.dir = td.path();
  o.fsync = fsync_policy::never;
  const auto expect_recovers = [&](const std::vector<std::uint8_t>& snap_bytes,
                                   const std::vector<std::uint8_t>& log_bytes,
                                   const recovered_state& want,
                                   const std::string& what) {
    write_bytes(server_durability::snap_path_for(o.dir, 0), snap_bytes);
    write_bytes(server_durability::log_path_for(o.dir, 0), log_bytes);
    const server_durability d(o, 0);
    EXPECT_EQ(d.recovered().found, want.found) << what;
    EXPECT_EQ(d.recovered().epoch, want.epoch) << what;
    EXPECT_EQ(d.recovered().objects, want.objects) << what;
  };
  // The applied sequence is the snapshot's state, then each log record.
  for_each_damage(log, [&](const auto& bytes, std::size_t at) {
    expect_recovers(
        snapshot, bytes,
        replayed(&snap_state,
                 std::span(records).first(frames_before(log, at))),
        "log damaged at " + std::to_string(at));
  });
  for_each_damage(snapshot, [&](const auto& bytes, std::size_t at) {
    expect_recovers(
        bytes, log,
        replayed(at == snapshot.size() ? &snap_state : nullptr, records),
        "snapshot damaged at " + std::to_string(at));
  });
}

// ----------------------------------------------------- epoch fencing --

store::store_config small_cfg(const std::string& dir) {
  store::store_config cfg;
  cfg.base.servers = 3;
  cfg.base.t_failures = 1;
  cfg.base.readers = 1;
  cfg.base.writers = 1;
  cfg.shard_protocols = {"abd"};
  cfg.persist.dir = dir;
  cfg.persist.fsync = fsync_policy::never;
  return cfg;
}

TEST(Recovery, ServerRejoinsWithMatchingEpochState) {
  temp_dir td("rejoin");
  const auto cfg = small_cfg(td.path());
  {
    server_durability d(cfg.persist, 0);
    d.append_op(0, 42, snap(5, 0, "durable"));
  }
  store::server s(std::make_shared<const store::shard_map>(cfg), 0);
  EXPECT_EQ(s.recovered_objects(), 1u);
  EXPECT_EQ(s.objects_hosted(), 1u);
  ASSERT_NE(s.durable(), nullptr);
  EXPECT_TRUE(s.durable()->recovered().found);
}

TEST(Recovery, EpochFenceDiscardsStaleStateAndItsDiskBacking) {
  temp_dir td("fence");
  const auto cfg = small_cfg(td.path());
  {
    server_durability d(cfg.persist, 0);
    d.append_op(0, 42, snap(5, 0, "stale"));
    write_snap(d, 0, {{42, snap(5, 0, "stale")}});
  }
  // The fleet reconfigured to epoch 1 while this server was down: its
  // epoch-0 idea of the world is void. It must come up EMPTY (the
  // bootstrap path re-seeds it lazily) and wipe the stale backing so new
  // appends do not stack on discarded state.
  store::server s(
      std::make_shared<const store::shard_map>(cfg, /*epoch=*/1), 0);
  EXPECT_EQ(s.recovered_objects(), 0u);
  EXPECT_EQ(s.objects_hosted(), 0u);
  ASSERT_NE(s.durable(), nullptr);
  EXPECT_FALSE(s.durable()->recovered().found);
  EXPECT_EQ(file_size(server_durability::log_path_for(td.path(), 0)), 0u);
  EXPECT_FALSE(std::filesystem::exists(
      server_durability::snap_path_for(td.path(), 0)));
}

// ------------------------------------- kill mid-load, restart, verify --

/// A durable S = 5, t = 1 store with R = 2 readers and W writers, all of
/// whose keys run `protocol`, snapshotting every 64 records.
store::store_config durable_cfg(const std::string& dir, fsync_policy policy,
                                const std::string& protocol,
                                std::uint32_t writers) {
  store::store_config cfg;
  cfg.base.servers = 5;
  cfg.base.t_failures = 1;
  cfg.base.readers = 2;
  cfg.base.writers = writers;
  cfg.shard_protocols = {protocol};
  cfg.persist.dir = dir;
  cfg.persist.fsync = policy;
  cfg.persist.snapshot_every = 64;  // several snapshot cycles per run
  return cfg;
}

/// The acceptance schedule on the simulator: a Zipf-keyed load, one
/// server killed a third of the way in, restarted (replaying its durable
/// state) at two thirds, and every per-key history verified at the end
/// (MWMR when cfg has several writers, SWMR atomicity otherwise).
/// `on_restart` sees the restarted server as its constructor left it.
/// Returns the restarted server's recovered-object count.
std::size_t run_sim_kill_restart(
    const store::store_config& cfg, std::uint64_t seed,
    const std::function<void(store::server&)>& on_restart = {}) {
  const std::uint32_t W = cfg.base.W();
  store::sim_store s(cfg);
  rng r(seed);
  const benchutil::zipf_sampler zipf(/*n=*/20, /*s=*/0.99);
  const auto key = [&] { return "k" + std::to_string(zipf.sample(r)); };

  const std::uint32_t per_client = 160;
  std::vector<benchutil::sim_client> clients;
  for (std::uint32_t j = 0; j < W; ++j) {
    clients.push_back(
        {writer_id(j), 1, per_client,
         [&, j, seq = 0u](std::uint32_t) mutable {
           return std::vector<store::store_op>{
               {key(), /*is_put=*/true,
                "w" + std::to_string(j) + ":" + std::to_string(++seq)}};
         }});
  }
  for (std::uint32_t i = 0; i < 2; ++i) {
    clients.push_back({reader_id(i), 1, per_client, [&](std::uint32_t) {
                         return std::vector<store::store_op>{
                             {key(), false, {}}};
                       }});
  }
  const std::uint64_t total = (W + 2ull) * per_client;
  bool crashed = false;
  std::size_t recovered = 0;
  benchutil::drive_sim(
      s, r, std::move(clients), /*delays=*/nullptr,
      [&](std::uint64_t invoked) {
        if (!crashed && invoked >= total / 3) {
          crashed = true;
          s.crash_server(4);
        }
        if (crashed && recovered == 0 && invoked >= 2 * total / 3) {
          s.restart_server(4);
          auto& ns = s.server_at(4);
          recovered = ns.recovered_objects();
          if (on_restart) on_restart(ns);
        }
        return false;
      });
  EXPECT_TRUE(s.histories().all_complete());
  std::string failing;
  const auto res = s.histories().verify(
      W > 1 ? store::verify_mode::mwmr : store::verify_mode::swmr_atomic,
      &failing);
  EXPECT_TRUE(res.ok) << "seed " << seed << " key " << failing << ": "
                      << res.error;
  return recovered;
}

TEST(Recovery, SimServerKilledMidZipfLoadRestartsReplaysAndRejoins) {
  temp_dir td("sim_kill");
  const auto recovered = run_sim_kill_restart(
      durable_cfg(td.path(), fsync_policy::never, "mwmr", 2),
      benchutil::stress_seed_from_env());
  // Two thirds of a 640-op Zipf load has touched (and persisted) state on
  // every server; a restart that replayed nothing would mean the durable
  // path never engaged.
  EXPECT_GT(recovered, 0u);
  EXPECT_GT(file_size(server_durability::log_path_for(td.path(), 0)) +
                file_size(server_durability::snap_path_for(td.path(), 0)),
            0u);
}

TEST(Recovery, SimFastBftServerRestartKeepsWriterSignatures) {
  // The Byzantine-model register persists the writer's signature with each
  // value: a restarted replica that replayed a value without it could
  // never serve that value again (readers discard unsigned timestamps).
  temp_dir td("sim_fast_bft");
  auto cfg = durable_cfg(td.path(), fsync_policy::never, "fast_bft", 1);
  cfg.base.sigs = crypto::make_signature_scheme("oracle");
  const auto seed = benchutil::stress_seed_from_env();
  std::size_t signed_objects = 0;
  const auto recovered = run_sim_kill_restart(
      cfg, seed, [&](store::server& ns) {
        ASSERT_NE(ns.durable(), nullptr);
        for (const auto& [obj, snap] : ns.durable()->recovered().objects) {
          if (snap.ts == k_initial_ts) continue;
          message m;
          m.obj = obj;
          m.ts = snap.ts;
          m.wid = snap.wid;
          m.val = snap.val;
          m.prev = snap.prev;
          m.sig = snap.sig;
          EXPECT_TRUE(valid_signed_ts(cfg.base, m))
              << "seed " << seed << " object " << obj << " ts " << snap.ts;
          ++signed_objects;
        }
      });
  EXPECT_GT(recovered, 0u);
  EXPECT_GT(signed_objects, 0u);
}

TEST(Recovery, FsyncPolicyMatrixSmoke) {
  // Same kill/restart/verify schedule under every fsync policy: the knob
  // must change only WHEN bytes reach the platter, never what replays.
  for (const auto policy : {fsync_policy::never, fsync_policy::interval,
                            fsync_policy::every_op}) {
    temp_dir td(std::string("matrix_") + to_string(policy));
    const auto recovered = run_sim_kill_restart(
        durable_cfg(td.path(), policy, "mwmr", 2), /*seed=*/7);
    EXPECT_GT(recovered, 0u) << "policy " << to_string(policy);
  }
}

TEST(Recovery, FsyncPolicyParsesAndRoundTrips) {
  EXPECT_EQ(parse_fsync_policy("never", fsync_policy::interval),
            fsync_policy::never);
  EXPECT_EQ(parse_fsync_policy("interval", fsync_policy::never),
            fsync_policy::interval);
  EXPECT_EQ(parse_fsync_policy("every_op", fsync_policy::never),
            fsync_policy::every_op);
  // Unknown strings keep the fallback (and warn) instead of silently
  // running a different durability contract than asked for.
  EXPECT_EQ(parse_fsync_policy("bogus", fsync_policy::every_op),
            fsync_policy::every_op);
  for (const auto p : {fsync_policy::never, fsync_policy::interval,
                       fsync_policy::every_op}) {
    EXPECT_EQ(parse_fsync_policy(to_string(p), fsync_policy::never), p);
  }
}

// -------------------------------------- stress harness, both transports --

TEST(Recovery, SimStressCrashRestartScheduleWithDurableState) {
  temp_dir td("stress_sim");
  benchutil::stress_options opt;
  opt.protocol = "mwmr";
  opt.S = 5;
  opt.t = 1;
  opt.R = 2;
  opt.W = 2;
  opt.num_keys = 3;
  opt.puts_per_writer = benchutil::stress_iters(150);
  opt.gets_per_reader = benchutil::stress_iters(150);
  opt.crash_servers = 1;
  opt.restart_crashed = true;
  opt.persist_dir = td.path();
  opt.seed = benchutil::stress_seed_from_env();
  opt.label = "recovery_sim_restart";
  const auto rep = run_sim_stress(opt);
  EXPECT_TRUE(rep.ok()) << rep.describe();
}

TEST(Recovery, TcpStressCrashRestartScheduleWithDurableState) {
  temp_dir td("stress_tcp");
  benchutil::stress_options opt;
  opt.protocol = "mwmr";
  opt.S = 5;
  opt.t = 1;
  opt.R = 2;
  opt.W = 2;
  opt.num_keys = 3;
  opt.puts_per_writer = benchutil::stress_iters(120);
  opt.gets_per_reader = benchutil::stress_iters(120);
  opt.crash_servers = 1;
  opt.restart_crashed = true;
  opt.persist_dir = td.path();
  opt.seed = benchutil::stress_seed_from_env();
  opt.label = "recovery_tcp_restart";
  const auto rep = run_tcp_stress(opt);
  EXPECT_TRUE(rep.ok()) << rep.describe();
  // The killed server (index 4) actually wrote durable state before the
  // restart replayed it.
  EXPECT_GT(file_size(server_durability::log_path_for(td.path(), 4)) +
                file_size(server_durability::snap_path_for(td.path(), 4)),
            0u);
}

// ------------------------------------------- the benchmark's registry rows --

/// Sum of the rows named `name` or `name{...}` (how benchmark/ reads a
/// series); nullopt when no such row is registered.
std::optional<double> registered_series_sum(
    const std::vector<obs::sample>& rows, const std::string& name) {
  std::optional<double> sum;
  for (const auto& r : rows) {
    if (r.name == name || r.name.rfind(name + "{", 0) == 0) {
      sum = sum.value_or(0) + r.value;
    }
  }
  return sum;
}

TEST(RegistryContract, DurableTcpWorkloadMovesEveryRowTheBenchmarkReads) {
  temp_dir td("contract");
  store::store_config cfg;
  cfg.base.servers = 3;
  cfg.base.t_failures = 1;
  cfg.base.readers = 1;
  cfg.base.writers = 1;
  cfg.shard_protocols = {"abd"};
  cfg.persist.dir = td.path();
  cfg.persist.fsync = fsync_policy::every_op;
  // Above the op count: no snapshot truncates a log, so each log file
  // holds every record its server appended.
  cfg.persist.snapshot_every = 1000;
  const auto before = obs::snapshot();
  {
    store::tcp_store ts(cfg);
    ts.start();
    for (int i = 0; i < 24; ++i) {
      const std::string key = "k" + std::to_string(i % 4);
      ASSERT_TRUE(store::test::put_one(ts.frontend(), 0, key,
                                       "v" + std::to_string(i)));
      ASSERT_TRUE(store::test::get_one(ts.frontend(), 0, key).has_value());
    }
    ts.stop();
  }
  const auto delta = obs::diff_snapshot(obs::snapshot(), before);

  for (const char* name :
       {"fastreg_store_serve_ns_sum", "fastreg_store_serve_ns_count",
        "fastreg_net_frames_out_total", "fastreg_net_writev_calls_total",
        "fastreg_net_bytes_out_total", "fastreg_net_reactor_tasks_total",
        "fastreg_net_flush_ns_sum", "fastreg_net_flush_ns_count"}) {
    const auto sum = registered_series_sum(delta, name);
    ASSERT_TRUE(sum.has_value()) << name;
    EXPECT_GT(*sum, 0) << name;
  }
  for (std::uint32_t i = 0; i < cfg.base.S(); ++i) {
    const std::string lbl = "{" + node_label(i) + "}";
    const auto row = [&](const std::string& name) {
      const auto v = registered_series_sum(delta, name + lbl);
      EXPECT_TRUE(v.has_value()) << name + lbl;
      return v.value_or(-1);
    };
    EXPECT_GT(row("fastreg_store_ops_total"), 0);
    EXPECT_GT(row("fastreg_persist_replay_ns_count"), 0);
    EXPECT_EQ(row("fastreg_persist_snapshots_total"), 0);
    // The log rows count exactly what reached the file: every record the
    // log reads back, and every byte of it. Under every_op each record is
    // fsynced once.
    const std::string log = server_durability::log_path_for(td.path(), i);
    const auto loaded = wal::load(log, /*repair=*/false);
    EXPECT_FALSE(loaded.truncated()) << loaded.warning;
    EXPECT_GT(loaded.records.size(), 0u) << log;
    EXPECT_EQ(row("fastreg_persist_log_records_total"),
              static_cast<double>(loaded.records.size()));
    EXPECT_EQ(row("fastreg_persist_log_bytes_total"),
              static_cast<double>(file_size(log)));
    EXPECT_EQ(row("fastreg_persist_fsyncs_total"),
              static_cast<double>(loaded.records.size()));
  }

  // A snapshot, here of server 0's recovered state, moves its row.
  const auto snaps0 =
      counter_value("fastreg_persist_snapshots_total", node_label(0));
  server_durability d(cfg.persist, 0);
  ASSERT_TRUE(d.recovered().found);
  const object_list state(d.recovered().objects.begin(),
                          d.recovered().objects.end());
  write_snap(d, d.recovered().epoch, state);
  EXPECT_EQ(counter_value("fastreg_persist_snapshots_total", node_label(0)),
            snaps0 + 1);
}

}  // namespace
}  // namespace fastreg::persist
