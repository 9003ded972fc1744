#include "reconfig/coordinator.h"

#include <algorithm>

#include "common/check.h"
#include "obs/recorder.h"

namespace fastreg::reconfig {

coordinator::coordinator(control_plane& ctl, std::vector<std::string> keys)
    : ctl_(ctl), keys_(std::move(keys)) {
  auto& reg = obs::registry::instance();
  epoch_gauge_ = &reg.get_gauge("fastreg_reconfig_epoch");
  read_phase_ns_ =
      &reg.get_histogram("fastreg_reconfig_phase_ns", "phase=\"state_read\"");
  seed_phase_ns_ =
      &reg.get_histogram("fastreg_reconfig_phase_ns", "phase=\"seed\"");
}

bool coordinator::start(std::shared_ptr<const store::shard_map> cur,
                        const reconfig_plan& plan) {
  FASTREG_EXPECTS(phase_ == phase::idle);
  FASTREG_EXPECTS(cur != nullptr);
  error_ = validate_plan(*cur, plan);
  if (!error_.empty()) return false;
  old_map_ = std::move(cur);
  new_map_ = build_next_map(*old_map_, plan);
  stats_.new_epoch = new_map_->epoch();
  const auto& base = old_map_->config().base;

  // Pre-flight: the handoff's quorum waits stall forever if more than t
  // servers are unreachable, so refuse to fence anything in that state.
  // The same pass collects state each server fenced last generation but
  // never received the seed for; those objects are handed off again (and
  // fenced again) even if their protocol does not change, so a seed-
  // missing replica cannot serve silently regressed state.
  force_move_.clear();
  std::uint32_t reachable = 0;
  for (std::uint32_t i = 0; i < base.S(); ++i) {
    ctl_.with_server(i, [&](store::server& s) {
      ++reachable;
      for (const auto obj : s.unseeded_moved_objects()) {
        force_move_.insert(obj);
      }
    });
  }
  if (reachable < base.quorum()) {
    error_ = "only " + std::to_string(reachable) + " of " +
             std::to_string(base.S()) +
             " servers reachable; a reconfiguration needs a quorum (" +
             std::to_string(base.quorum()) + ")";
    old_map_ = nullptr;
    new_map_ = nullptr;
    return false;
  }

  // Install + discovery, atomically per server: once a server is at the
  // new epoch it cannot create a new moved instance (data messages for
  // un-seeded moved objects are held or nacked), so its index read right
  // after the install is complete for this migration. Every server
  // fences moved objects from this point on; only then may clients learn
  // of the epoch (they learn via server replies or via the published
  // map, both of which happen after the installs), so no new-epoch
  // message can reach a server still at the old epoch.
  std::unordered_set<object_id> discovered;
  for (std::uint32_t i = 0; i < base.S(); ++i) {
    ctl_.with_server(i, [&](store::server& s) {
      s.install_map(new_map_, force_move_);
      for (const auto obj : s.list_objects()) discovered.insert(obj);
    });
  }
  ctl_.publish(new_map_);
  epoch_gauge_->set(static_cast<std::int64_t>(new_map_->epoch()));
  stats_.keys_discovered = discovered.size();

  // Handoff candidates: explicit keys first (their order and duplicates
  // preserved -- dedup happens at handoff time), then the discovered
  // objects they did not already cover, then any force-moved object
  // covered by neither (possible for an object hosted NOWHERE whose
  // lazy fetch was still buffered at the install -- its clients were
  // just nacked into parking, so it must get a handoff, and with it a
  // resume). Sorted so schedules driven by a seeded rng stay
  // deterministic.
  targets_.clear();
  std::unordered_set<object_id> covered;
  for (const auto& key : keys_) {
    const auto obj = store::key_object_id(key);
    targets_.push_back(obj);
    covered.insert(obj);
  }
  std::vector<object_id> rest;
  for (const auto obj : discovered) {
    if (covered.insert(obj).second) rest.push_back(obj);
  }
  for (const auto obj : force_move_) {
    if (covered.insert(obj).second) rest.push_back(obj);
  }
  std::sort(rest.begin(), rest.end());
  targets_.insert(targets_.end(), rest.begin(), rest.end());

  advance_target();
  return true;
}

bool coordinator::target_moves(object_id obj) const {
  return store::object_moves(*old_map_, *new_map_, obj) ||
         force_move_.contains(obj);
}

void coordinator::advance_target() {
  while (next_target_ < targets_.size()) {
    const auto obj = targets_[next_target_];
    ++next_target_;
    ++stats_.keys_considered;
    if (!target_moves(obj)) {
      continue;  // same protocol either side: instances carried over
    }
    // One handoff per OBJECT: target_moves stays true for the whole
    // reconfiguration, so a duplicated key (or a distinct key colliding
    // to the same object id) would otherwise re-run the handoff against
    // the stale previous-generation snapshot -- re-flooring the writer
    // below live state and parking a put that then completes
    // acknowledged-but-unstored.
    if (!handled_.insert(obj).second) continue;
    ++stats_.keys_moved;
    cur_obj_ = obj;
    const epoch_t old_epoch = old_map_->epoch();
    ctl_.with_migrator([&](store::client& c, netout& net) {
      c.begin_state_read(obj, old_epoch);
      c.flush(net);
    });
    phase_ = phase::reading;
    phase_start_ = obs::trace_now();
    return;
  }
  phase_ = phase::done;
}

void coordinator::step() {
  switch (phase_) {
    case phase::idle:
    case phase::done:
      return;
    case phase::reading: {
      if (!ctl_.migrator_done()) return;
      read_phase_ns_->observe(obs::trace_now() - phase_start_);
      const auto snap = ctl_.migrator_snapshot();
      // Writer floors must be in place BEFORE any server stops nacking
      // the object: otherwise a retried put could race the drain with a
      // timestamp below the seeded state and stall.
      ctl_.for_each_client([&](store::client& c, netout& net) {
        if (c.self().is_writer()) c.seed_writer_floor(cur_obj_, snap);
        c.flush(net);
      });
      ctl_.with_migrator([&](store::client& c, netout& net) {
        c.begin_seed(cur_obj_, snap, new_map_->epoch());
        c.flush(net);
      });
      phase_ = phase::seeding;
      phase_start_ = obs::trace_now();
      return;
    }
    case phase::seeding: {
      if (!ctl_.migrator_done()) return;
      seed_phase_ns_->observe(obs::trace_now() - phase_start_);
      // Quorum seeded: wake whatever the fence parked. Servers outside
      // the seeded quorum lazily fetch the snapshot on first access.
      ctl_.for_each_client([&](store::client& c, netout& net) {
        c.resume_parked(cur_obj_);
        c.flush(net);
      });
      advance_target();
      return;
    }
  }
}

}  // namespace fastreg::reconfig
