// Durability and crash-recovery suite (src/persist + the store's rejoin
// path): the CRC, WAL framing round-trips, golden bytes for the frozen
// log and snapshot formats, streamed snapshots larger than the writer's
// buffer, a failed snapshot keeping the log, a failed append closing the
// log, torn-tail truncation at the last valid CRC frame, corrupt-record
// and corrupt-snapshot rejection with useful diagnostics, the
// fsync-policy matrix, epoch fencing of stale recovered state, and the
// end-to-end acceptance schedule -- a server killed in the middle of a
// Zipf-keyed load restarts, replays snapshot + log tail, rejoins, and
// every per-key history still verifies, on both transports. Last, the registry rows benchmark/
// reads: a durable TCP workload must move each of them, and the log's
// rows must match what the log files hold.
//
// "Crash" here is in-process (world::crash / node::stop), so the log
// bytes survive in the page cache regardless of fsync policy -- which is
// exactly what makes the recovery tests deterministic under fsync=never.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "benchutil/stress.h"
#include "benchutil/workload.h"
#include "common/check.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "persist/durable.h"
#include "persist/wal.h"
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

TEST(Wal, SnapshotBytesMatchTheGoldenEncoding) {
  temp_dir td("golden_snap");
  options o;
  o.dir = td.path();
  o.fsync = fsync_policy::never;
  server_durability d(o, 0);
  write_snap(d, 3, {{7, golden_a()}, {0x0102030405060708ull, golden_b()}});
  EXPECT_EQ(file_hex(d.snap_path()),
            "4652534e0100000052000000350eb87f03000000000000000200000007000000"
            "0000000009000000000000000100000001000000780000000000000000080706"
            "050403020104000000000000000000000002000000797a010000007002000000"
            "dead");
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
  EXPECT_EQ(file_hex(d.log_path()),
            "2a00000068cb31e10102000000000000000b0000000000000009000000000000"
            "0001000000010000007800000000000000002e0000001ee6f875020200000000"
            "0000000c0000000000000004000000000000000000000002000000797a010000"
            "007002000000dead1d0000000453f362030300000000000000020000000b0000"
            "00000000006300000000000000");
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
  server_durability d2(o, 3);
  ASSERT_TRUE(d2.recovered().found);
  EXPECT_EQ(d2.recovered().objects.size(), 2u);
  EXPECT_EQ(file_size(log), clean)
      << "replay should repair-truncate the torn tail on disk";
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

/// The acceptance schedule on the simulator: a Zipf-keyed MWMR load, one
/// server killed a third of the way in, restarted (replaying its durable
/// state) at two thirds, and every per-key history verified at the end.
/// Returns the restarted server's recovered-object count.
std::size_t run_sim_kill_restart(const std::string& dir,
                                 fsync_policy policy, std::uint64_t seed) {
  store::store_config cfg;
  cfg.base.servers = 5;
  cfg.base.t_failures = 1;
  cfg.base.readers = 2;
  cfg.base.writers = 2;
  cfg.shard_protocols = {"mwmr"};
  cfg.persist.dir = dir;
  cfg.persist.fsync = policy;
  cfg.persist.snapshot_every = 64;  // several snapshot cycles per run
  store::sim_store s(cfg);
  rng r(seed);
  store::test::sim_clients clients(s, r);
  const benchutil::zipf_sampler zipf(/*n=*/20, /*s=*/0.99);
  const auto key = [&] { return "k" + std::to_string(zipf.sample(r)); };

  const std::uint32_t per_client = 160;
  std::vector<std::uint32_t> puts_left(2, per_client);
  std::vector<std::uint32_t> gets_left(2, per_client);
  std::vector<std::uint64_t> put_seq(2, 0);
  const std::uint64_t total = 4ull * per_client;
  std::uint64_t invoked = 0, guard = 0;
  bool crashed = false;
  std::size_t recovered = 0;
  for (;;) {
    FASTREG_CHECK(++guard < 50'000'000);
    if (!crashed && invoked >= total / 3) {
      crashed = true;
      s.world().crash(server_id(4));
    }
    if (crashed && recovered == 0 && invoked >= 2 * total / 3) {
      auto& ns = s.restart_server(4);
      recovered = ns.recovered_objects();
    }
    bool invoked_now = false;
    for (std::uint32_t j = 0; j < 2; ++j) {
      if (puts_left[j] == 0 || s.writer_client(j).op_in_progress()) continue;
      --puts_left[j];
      ++invoked;
      invoked_now = true;
      clients.put(j, key(),
                  "w" + std::to_string(j) + ":" +
                      std::to_string(++put_seq[j]));
    }
    for (std::uint32_t i = 0; i < 2; ++i) {
      if (gets_left[i] == 0 || s.reader_client(i).op_in_progress()) continue;
      --gets_left[i];
      ++invoked;
      invoked_now = true;
      clients.get(i, key());
    }
    if (s.world().in_transit().empty()) {
      if (invoked_now) continue;
      break;
    }
    s.run_random(r, 1);
  }
  EXPECT_TRUE(s.histories().all_complete());
  std::string failing;
  const auto res =
      s.histories().verify(store::verify_mode::mwmr, &failing);
  EXPECT_TRUE(res.ok) << "seed " << seed << " key " << failing << ": "
                      << res.error;
  return recovered;
}

TEST(Recovery, SimServerKilledMidZipfLoadRestartsReplaysAndRejoins) {
  temp_dir td("sim_kill");
  const auto recovered = run_sim_kill_restart(
      td.path(), fsync_policy::never, benchutil::stress_seed_from_env());
  // Two thirds of a 640-op Zipf load has touched (and persisted) state on
  // every server; a restart that replayed nothing would mean the durable
  // path never engaged.
  EXPECT_GT(recovered, 0u);
  EXPECT_GT(file_size(server_durability::log_path_for(td.path(), 0)) +
                file_size(server_durability::snap_path_for(td.path(), 0)),
            0u);
}

TEST(Recovery, FsyncPolicyMatrixSmoke) {
  // Same kill/restart/verify schedule under every fsync policy: the knob
  // must change only WHEN bytes reach the platter, never what replays.
  for (const auto policy : {fsync_policy::never, fsync_policy::interval,
                            fsync_policy::every_op}) {
    temp_dir td(std::string("matrix_") + to_string(policy));
    const auto recovered =
        run_sim_kill_restart(td.path(), policy, /*seed=*/7);
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
std::optional<double> series_sum(const std::vector<obs::sample>& rows,
                                 const std::string& name) {
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
    const auto sum = series_sum(delta, name);
    ASSERT_TRUE(sum.has_value()) << name;
    EXPECT_GT(*sum, 0) << name;
  }
  for (std::uint32_t i = 0; i < cfg.base.S(); ++i) {
    const std::string lbl = "{" + node_label(i) + "}";
    const auto row = [&](const std::string& name) {
      const auto v = series_sum(delta, name + lbl);
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
