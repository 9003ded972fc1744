#include "persist/durable.h"

#include <filesystem>

#include "common/clock.h"
#include "common/log.h"

namespace fastreg::persist {

namespace {

const std::string& ensure_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    LOG_ERROR("persist: cannot create directory %s: %s", dir.c_str(),
              ec.message().c_str());
  }
  return dir;
}

std::string node_label(std::uint32_t index) {
  return "node=\"" + to_string(server_id(index)) + "\"";
}

}  // namespace

std::string server_durability::log_path_for(const std::string& dir,
                                            std::uint32_t index) {
  return dir + "/server_" + std::to_string(index) + ".log";
}

std::string server_durability::snap_path_for(const std::string& dir,
                                             std::uint32_t index) {
  return dir + "/server_" + std::to_string(index) + ".snap";
}

server_durability::server_durability(options opt, std::uint32_t server_index)
    : opt_(std::move(opt)),
      index_(server_index),
      snap_path_(snap_path_for(ensure_dir(opt_.dir), server_index)),
      log_(log_path_for(opt_.dir, server_index), opt_.fsync,
           opt_.fsync_interval_ms, node_label(server_index)) {
  auto& reg = obs::registry::instance();
  const std::string lbl = node_label(index_);
  pm_.snapshots = &reg.get_counter("fastreg_persist_snapshots_total", lbl);
  pm_.torn_tail_truncations =
      &reg.get_counter("fastreg_persist_torn_tail_truncations_total", lbl);
  pm_.replay_ns = &reg.get_histogram("fastreg_persist_replay_ns", lbl);
  pm_.snapshot_ns = &reg.get_histogram("fastreg_persist_snapshot_ns", lbl);
  replay();
}

void server_durability::replay() {
  const std::uint64_t t0 = steady_now_ns();
  std::string snap_err;
  if (auto snap = load_snapshot_file(snap_path_, &snap_err)) {
    rec_.epoch = snap->epoch;
    rec_.found = true;
    std::error_code ec;
    const auto size = std::filesystem::file_size(snap_path_, ec);
    snap_bytes_ = ec ? 0 : size;
    for (auto& [obj, s] : snap->objects) {
      rec_.objects[obj] = std::move(s);
    }
  } else if (!snap_err.empty()) {
    // A snapshot that fails validation is rejected wholesale; the log
    // (whose records survived independent CRC checks) is still replayed.
    LOG_ERROR("persist: server %u: %s -- starting from the op log alone",
              index_, snap_err.c_str());
  }
  auto loaded = wal::load(log_.path(), /*repair=*/true);
  if (loaded.truncated()) pm_.torn_tail_truncations->inc();
  log_.restore_bytes(loaded.valid_bytes);
  for (auto& rec : loaded.records) {
    rec_.found = true;
    if (rec.epoch > rec_.epoch) rec_.epoch = rec.epoch;
    switch (rec.k) {
      case log_record::kind::op:
      case log_record::kind::seed:
        rec_.objects[rec.obj] = std::move(rec.snap);
        break;
      case log_record::kind::epoch_mark:
        // The install set these objects aside for migration: their
        // recovered state is void in the new generation (post-mark seed
        // records re-establish the ones this server was re-seeded with).
        for (const auto obj : rec.fenced) rec_.objects.erase(obj);
        break;
    }
  }
  pm_.replay_ns->observe(steady_now_ns() - t0);
  if (rec_.found) {
    LOG_INFO("persist: server %u recovered %zu objects at epoch %llu "
             "(%zu log records replayed%s)",
             index_, rec_.objects.size(),
             static_cast<unsigned long long>(rec_.epoch),
             loaded.records.size(),
             loaded.truncated() ? ", torn tail truncated" : "");
  }
}

void server_durability::discard_recovered() {
  LOG_WARN("persist: server %u discarding recovered state at epoch %llu "
           "(%zu objects): the fleet's shard map moved on while this "
           "server was down; it re-bootstraps via the seed-fetch path",
           index_, static_cast<unsigned long long>(rec_.epoch),
           rec_.objects.size());
  rec_ = {};
  snap_bytes_ = 0;
  log_.reset();
  std::error_code ec;
  std::filesystem::remove(snap_path_, ec);
}

void server_durability::append_op(epoch_t epoch, object_id obj,
                                  const register_snapshot& s) {
  log_.append(log_record::kind::op, epoch, obj, s);
  ++since_snapshot_;
}

void server_durability::append_seed(epoch_t epoch, object_id obj,
                                    const register_snapshot& s) {
  log_.append(log_record::kind::seed, epoch, obj, s);
  ++since_snapshot_;
}

void server_durability::append_epoch_mark(
    epoch_t epoch, const std::vector<object_id>& fenced) {
  log_record rec;
  rec.k = log_record::kind::epoch_mark;
  rec.epoch = epoch;
  rec.fenced = fenced;
  log_.append(rec);
  ++since_snapshot_;
}

void server_durability::write_snapshot(
    epoch_t epoch, std::uint32_t count,
    const std::function<void(snapshot_writer&)>& fill) {
  const std::uint64_t t0 = steady_now_ns();
  snapshot_writer w(snap_path_, opt_.fsync, epoch, count);
  fill(w);
  std::string err;
  // A failed snapshot keeps the log and the last committed snapshot's
  // size, so the log still outweighs that snapshot: the retry waits for
  // another snapshot_every records, not for every subsequent append.
  since_snapshot_ = 0;
  if (!w.commit(&err)) {
    LOG_ERROR("persist: server %u snapshot failed: %s -- keeping the log "
              "(replay falls back to it)",
              index_, err.c_str());
    return;
  }
  pm_.snapshots->inc();
  pm_.snapshot_ns->observe(steady_now_ns() - t0);
  snap_bytes_ = w.bytes();
  // The snapshot covers everything the log held, and commit() made its
  // rename durable first (directory fsync). A crash between the rename
  // and this truncate replays snapshot + full log, which is correct
  // (later records win) -- just slower, and only until the next snapshot.
  log_.reset();
}

}  // namespace fastreg::persist
