#include "persist/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/check.h"
#include "common/clock.h"
#include "common/log.h"
#include "common/serialization.h"

namespace fastreg::persist {

namespace {

constexpr std::uint32_t k_snap_magic = 0x4e535246;  // "FRSN" little-endian
constexpr std::uint32_t k_snap_version = 1;
/// Snapshot header: magic, version, payload length, payload CRC.
constexpr std::size_t k_snap_header = 16;
/// Offset of the snapshot header's payload length (the CRC follows it).
constexpr off_t k_snap_len_offset = 8;
/// Frame header: payload length + payload CRC.
constexpr std::size_t k_frame_header = 8;

using crc_tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the IEEE 802.3 reflected polynomial: t[0] is
/// the bytewise table, and t[k][i] is t[0][i] advanced through k more
/// zero bytes, so eight lookups advance the CRC by eight bytes at once.
constexpr crc_tables make_crc_tables() {
  crc_tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr crc_tables k_crc_tables = make_crc_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Writes all of `data`, retrying EINTR and short writes. Returns false
/// on a real error (errno preserved for the caller's log line).
bool full_write(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// full_write at a file offset (the file position is left alone).
bool full_pwrite(int fd, const std::uint8_t* data, std::size_t len,
                 off_t offset) {
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, data, len, offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
    offset += n;
  }
  return true;
}

/// fsyncs the directory holding `path`, making a rename into it durable.
/// On failure errno is the failed call's.
bool fsync_parent_dir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  int fd;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  const int fsync_errno = errno;
  ::close(fd);
  errno = fsync_errno;
  return ok;
}

/// Reads the whole file into a byte vector sized once from fstat; nullopt
/// when it cannot be opened (missing file included -- callers distinguish
/// via errno).
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  std::vector<std::uint8_t> out(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;  // shrank since the fstat
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(got);
  return out;
}

void encode_snapshot_fields(byte_writer& w, object_id obj,
                            const register_snapshot& s) {
  w.put_u64(obj);
  w.put_i64(s.ts);
  w.put_i32(s.wid);
  w.put_string(s.val);
  w.put_string(s.prev);
  w.put_bytes(s.sig);
}

bool decode_snapshot_fields(byte_reader& r, object_id& obj,
                            register_snapshot& s) {
  const auto o = r.get_u64();
  const auto ts = r.get_i64();
  const auto wid = r.get_i32();
  if (!o || !ts || !wid) return false;
  obj = *o;
  s.ts = *ts;
  s.wid = *wid;
  return r.get_string(s.val) && r.get_string(s.prev) && r.get_bytes(s.sig);
}

std::optional<log_record> decode_record(std::span<const std::uint8_t> payload) {
  byte_reader r(payload);
  const auto kind = r.get_u8();
  const auto epoch = r.get_u64();
  if (!kind || !epoch) return std::nullopt;
  log_record rec;
  rec.epoch = *epoch;
  switch (*kind) {
    case static_cast<std::uint8_t>(log_record::kind::op):
    case static_cast<std::uint8_t>(log_record::kind::seed):
      rec.k = static_cast<log_record::kind>(*kind);
      if (!decode_snapshot_fields(r, rec.obj, rec.snap)) return std::nullopt;
      break;
    case static_cast<std::uint8_t>(log_record::kind::epoch_mark): {
      rec.k = log_record::kind::epoch_mark;
      const auto n = r.get_u32();
      if (!n) return std::nullopt;
      rec.fenced.reserve(*n);
      for (std::uint32_t i = 0; i < *n; ++i) {
        const auto obj = r.get_u64();
        if (!obj) return std::nullopt;
        rec.fenced.push_back(*obj);
      }
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.exhausted()) return std::nullopt;  // trailing garbage in the frame
  return rec;
}

}  // namespace

// ------------------------------------------------------------------ crc32 --

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t prev) {
  const auto& t = k_crc_tables;
  std::uint32_t c = prev ^ 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

// ---------------------------------------------------------------- options --

const char* to_string(fsync_policy p) {
  switch (p) {
    case fsync_policy::never:
      return "never";
    case fsync_policy::interval:
      return "interval";
    case fsync_policy::every_op:
      return "every_op";
  }
  return "?";
}

fsync_policy parse_fsync_policy(const std::string& s, fsync_policy fallback) {
  if (s == "never") return fsync_policy::never;
  if (s == "interval") return fsync_policy::interval;
  if (s == "every_op") return fsync_policy::every_op;
  return fallback;
}

options options::from_env(std::string dir) {
  options o;
  o.dir = std::move(dir);
  if (const char* env = std::getenv("FASTREG_FSYNC")) {
    o.fsync = parse_fsync_policy(env, o.fsync);
  }
  return o;
}

// -------------------------------------------------------------------- wal --

wal::wal(std::string path, fsync_policy policy,
         std::uint64_t fsync_interval_ms, std::string_view metric_labels)
    : path_(std::move(path)),
      policy_(policy),
      fsync_interval_ms_(fsync_interval_ms),
      records_(obs::registry::instance().get_counter(
          "fastreg_persist_log_records_total", metric_labels)),
      bytes_(obs::registry::instance().get_counter(
          "fastreg_persist_log_bytes_total", metric_labels)),
      fsyncs_(obs::registry::instance().get_counter(
          "fastreg_persist_fsyncs_total", metric_labels)) {
  do {
    fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC,
                 0644);
  } while (fd_ < 0 && errno == EINTR);
  if (fd_ < 0) {
    LOG_ERROR("persist: cannot open op log %s: %s -- continuing without "
              "durability",
              path_.c_str(), std::strerror(errno));
  }
  last_sync_ns_ = steady_now_ns();
}

wal::~wal() {
  if (policy_ != fsync_policy::never) sync();
  if (fd_ >= 0) ::close(fd_);
}

void wal::append(const log_record& rec) {
  if (rec.k != log_record::kind::epoch_mark) {
    append(rec.k, rec.epoch, rec.obj, rec.snap);
    return;
  }
  if (fd_ < 0) return;
  frame_.assign(k_frame_header, 0);
  byte_writer w(frame_);
  w.put_u8(static_cast<std::uint8_t>(rec.k));
  w.put_u64(rec.epoch);
  w.put_u32(static_cast<std::uint32_t>(rec.fenced.size()));
  for (const auto obj : rec.fenced) w.put_u64(obj);
  write_frame();
}

void wal::append(log_record::kind k, epoch_t epoch, object_id obj,
                 const register_snapshot& s) {
  FASTREG_EXPECTS(k != log_record::kind::epoch_mark);
  if (fd_ < 0) return;
  frame_.assign(k_frame_header, 0);
  byte_writer w(frame_);
  w.put_u8(static_cast<std::uint8_t>(k));
  w.put_u64(epoch);
  encode_snapshot_fields(w, obj, s);
  write_frame();
}

void wal::write_frame() {
  const auto payload =
      std::span<const std::uint8_t>(frame_).subspan(k_frame_header);
  store_le32(frame_.data(), static_cast<std::uint32_t>(payload.size()));
  store_le32(frame_.data() + 4, crc32(payload));
  if (!full_write(fd_, frame_.data(), frame_.size())) {
    close_on_error("append to");
    return;
  }
  records_.inc();
  bytes_.inc(frame_.size());
  file_bytes_ += frame_.size();
  dirty_bytes_ += frame_.size();
  maybe_sync();
}

void wal::close_on_error(const char* what) {
  LOG_ERROR("persist: %s %s failed: %s -- closing the log (server keeps "
            "serving without durability)",
            what, path_.c_str(), std::strerror(errno));
  ::close(fd_);
  fd_ = -1;
}

void wal::maybe_sync() {
  if (fd_ < 0 || dirty_bytes_ == 0) return;
  switch (policy_) {
    case fsync_policy::never:
      return;
    case fsync_policy::every_op:
      break;
    case fsync_policy::interval: {
      const std::uint64_t now = steady_now_ns();
      if (now - last_sync_ns_ < fsync_interval_ms_ * 1'000'000ull) return;
      break;
    }
  }
  sync();
}

void wal::sync() {
  if (fd_ < 0 || dirty_bytes_ == 0) return;
  if (::fsync(fd_) != 0) {
    // The unsynced bytes may be lost, so no later record may follow them.
    close_on_error("fsync of");
    return;
  }
  fsyncs_.inc();
  dirty_bytes_ = 0;
  last_sync_ns_ = steady_now_ns();
}

void wal::reset() {
  if (fd_ < 0) return;
  if (::ftruncate(fd_, 0) != 0) {
    LOG_ERROR("persist: truncate of %s after snapshot failed: %s",
              path_.c_str(), std::strerror(errno));
    return;
  }
  file_bytes_ = 0;
  dirty_bytes_ = 0;
}

wal_load_result wal::load(const std::string& path, bool repair) {
  wal_load_result out;
  const auto bytes = read_file(path);
  if (!bytes) return out;  // no log yet: empty result, no warning
  const auto& data = *bytes;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::span<const std::uint8_t> rest(data.data() + pos,
                                             data.size() - pos);
    byte_reader hdr(rest);
    const auto len = hdr.get_u32();
    const auto crc = hdr.get_u32();
    if (!len || !crc || pos + k_frame_header + *len > data.size()) {
      out.warning = "torn tail: incomplete frame at offset " +
                    std::to_string(pos) + " (" +
                    std::to_string(data.size() - pos) + " trailing bytes)";
      break;
    }
    const auto payload = rest.subspan(k_frame_header, *len);
    if (crc32(payload) != *crc) {
      out.warning = "corrupt record at offset " + std::to_string(pos) +
                    ": CRC mismatch (stored " + std::to_string(*crc) +
                    ", computed " + std::to_string(crc32(payload)) +
                    "); dropping it and everything after";
      break;
    }
    auto rec = decode_record(payload);
    if (!rec) {
      out.warning = "corrupt record at offset " + std::to_string(pos) +
                    ": CRC valid but payload undecodable; dropping it "
                    "and everything after";
      break;
    }
    out.records.push_back(std::move(*rec));
    pos += k_frame_header + *len;
  }
  out.valid_bytes = pos;
  out.dropped_bytes = data.size() - pos;
  if (out.truncated()) {
    LOG_WARN("persist: %s: %s (%llu valid records, %llu bytes kept, %llu "
             "bytes dropped)",
             path.c_str(), out.warning.c_str(),
             static_cast<unsigned long long>(out.records.size()),
             static_cast<unsigned long long>(out.valid_bytes),
             static_cast<unsigned long long>(out.dropped_bytes));
    if (repair && ::truncate(path.c_str(),
                             static_cast<off_t>(out.valid_bytes)) != 0) {
      LOG_ERROR("persist: repair-truncate of %s to %llu bytes failed: %s",
                path.c_str(),
                static_cast<unsigned long long>(out.valid_bytes),
                std::strerror(errno));
    }
  }
  return out;
}

// -------------------------------------------------------------- snapshots --

snapshot_writer::snapshot_writer(std::string path, fsync_policy policy,
                                 epoch_t epoch, std::uint32_t count)
    : path_(std::move(path)),
      tmp_(path_ + ".tmp"),
      policy_(policy),
      count_(count) {
  do {
    fd_ = ::open(tmp_.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC,
                 0644);
  } while (fd_ < 0 && errno == EINTR);
  if (fd_ < 0) {
    fail("open", tmp_);
    return;
  }
  buf_.reserve(k_buffer_bytes);
  byte_writer w(buf_);
  w.put_u32(k_snap_magic);
  w.put_u32(k_snap_version);
  w.put_u32(0);  // payload_len, patched by commit()
  w.put_u32(0);  // crc, likewise
  w.put_u64(epoch);
  w.put_u32(count);
}

snapshot_writer::~snapshot_writer() {
  if (fd_ >= 0) ::close(fd_);
  if (!renamed_) ::unlink(tmp_.c_str());
}

void snapshot_writer::fail(const char* what, const std::string& file) {
  if (error_.empty()) {
    error_ = std::string(what) + " " + file + ": " + std::strerror(errno);
  }
}

void snapshot_writer::add(object_id obj, const register_snapshot& s) {
  ++added_;
  if (!error_.empty()) return;
  byte_writer w(buf_);
  encode_snapshot_fields(w, obj, s);
  if (buf_.size() >= k_buffer_bytes) flush();
}

void snapshot_writer::flush() {
  if (!error_.empty()) return;
  // The header is not part of the CRC'd payload.
  const std::size_t skip = written_ == 0 ? k_snap_header : 0;
  crc_ = crc32(std::span<const std::uint8_t>(buf_).subspan(skip), crc_);
  if (!full_write(fd_, buf_.data(), buf_.size())) {
    fail("write", tmp_);
    return;
  }
  written_ += buf_.size();
  buf_.clear();
}

bool snapshot_writer::commit(std::string* err) {
  FASTREG_EXPECTS(added_ == count_);
  const bool durable = policy_ != fsync_policy::never;
  flush();
  if (error_.empty()) {
    std::uint8_t len_crc[8];
    store_le32(len_crc, static_cast<std::uint32_t>(written_ - k_snap_header));
    store_le32(len_crc + 4, crc_);
    if (!full_pwrite(fd_, len_crc, sizeof len_crc, k_snap_len_offset)) {
      fail("write", tmp_);
    }
  }
  // The rename is only atomic-durable if the tmp's bytes are on disk
  // first; under fsync never the page cache is the declared contract.
  if (error_.empty() && durable && ::fsync(fd_) != 0) fail("fsync", tmp_);
  if (error_.empty()) {
    const int rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) fail("close", tmp_);
  }
  if (error_.empty()) {
    if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
      fail("rename", tmp_ + " -> " + path_);
    } else {
      renamed_ = true;
      // Otherwise power loss could keep the log truncation the caller
      // does next while losing the rename.
      if (durable && !fsync_parent_dir(path_)) {
        fail("fsync the directory of", path_);
      }
    }
  }
  if (!error_.empty() && err != nullptr) *err = error_;
  return error_.empty();
}

bool write_snapshot_file(const std::string& path, const snapshot_data& snap,
                         fsync_policy policy, std::string* err) {
  snapshot_writer w(path, policy, snap.epoch,
                    static_cast<std::uint32_t>(snap.objects.size()));
  for (const auto& [obj, s] : snap.objects) w.add(obj, s);
  return w.commit(err);
}

std::optional<snapshot_data> load_snapshot_file(const std::string& path,
                                                std::string* err) {
  if (err) err->clear();
  const auto bytes = read_file(path);
  if (!bytes) {
    if (errno != ENOENT && err) {
      *err = "open " + path + ": " + std::strerror(errno);
    }
    return std::nullopt;
  }
  byte_reader r{std::span<const std::uint8_t>(*bytes)};
  const auto magic = r.get_u32();
  const auto version = r.get_u32();
  const auto len = r.get_u32();
  const auto crc = r.get_u32();
  if (!magic || *magic != k_snap_magic) {
    if (err) *err = "snapshot " + path + " rejected: bad magic";
    return std::nullopt;
  }
  if (!version || *version != k_snap_version) {
    if (err) {
      *err = "snapshot " + path + " rejected: unsupported version " +
             std::to_string(version.value_or(0));
    }
    return std::nullopt;
  }
  if (!len || !crc || r.remaining() != *len) {
    if (err) {
      *err = "snapshot " + path + " rejected: truncated (" +
             std::to_string(bytes->size()) + " bytes on disk)";
    }
    return std::nullopt;
  }
  const auto payload = std::span(*bytes).subspan(bytes->size() - *len);
  if (crc32(payload) != *crc) {
    if (err) {
      *err = "snapshot " + path + " rejected: CRC mismatch (stored " +
             std::to_string(*crc) + ", computed " +
             std::to_string(crc32(payload)) + ")";
    }
    return std::nullopt;
  }
  byte_reader body(payload);
  const auto epoch = body.get_u64();
  const auto count = body.get_u32();
  if (!epoch || !count) {
    if (err) *err = "snapshot " + path + " rejected: undecodable header";
    return std::nullopt;
  }
  snapshot_data snap;
  snap.epoch = *epoch;
  snap.objects.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    object_id obj;
    register_snapshot s;
    if (!decode_snapshot_fields(body, obj, s)) {
      if (err) {
        *err = "snapshot " + path + " rejected: undecodable object entry " +
               std::to_string(i);
      }
      return std::nullopt;
    }
    snap.objects.emplace_back(obj, std::move(s));
  }
  return snap;
}

}  // namespace fastreg::persist
