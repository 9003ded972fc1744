#include "reconfig/coordinator.h"

#include <algorithm>

#include "common/check.h"

namespace fastreg::reconfig {

namespace {

/// The migrator: the reader whose handoff ops read and seed the state.
const process_id k_migrator = reader_id(0);

}  // namespace

coordinator::coordinator(store::deployment& dep, std::vector<std::string> keys)
    : dep_(dep), keys_(std::move(keys)) {}

bool coordinator::start(const reconfig_plan& plan) {
  FASTREG_EXPECTS(phase_ == phase::idle);
  auto cur = dep_.proto().shards();
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
    const bool visited = dep_.visit(server_id(i), [&](automaton& a) {
      for (const auto obj :
           dynamic_cast<store::server&>(a).unseeded_moved_objects()) {
        force_move_.insert(obj);
      }
    });
    if (visited) ++reachable;
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
    // A server refused here is skipped, as in the pre-flight.
    (void)dep_.visit(server_id(i), [&](automaton& a) {
      auto& s = dynamic_cast<store::server&>(a);
      s.install_map(new_map_, force_move_);
      for (const auto obj : s.list_objects()) discovered.insert(obj);
    });
  }
  dep_.proto().maps()->install(new_map_);
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
    step_client(k_migrator,
                [&](store::client& c) { c.begin_state_read(obj, old_epoch); });
    phase_ = phase::reading;
    return;
  }
  phase_ = phase::done;
}

void coordinator::step_client(const process_id& p,
                              const std::function<void(store::client&)>& fn) {
  FASTREG_CHECK(dep_.step(p, [&](automaton& a, netout& net) {
    auto& c = dynamic_cast<store::client&>(a);
    fn(c);
    c.flush(net);
  }));
}

void coordinator::step_clients(
    const std::function<void(store::client&)>& fn) {
  const auto& base = old_map_->config().base;
  for (std::uint32_t j = 0; j < base.W(); ++j) step_client(writer_id(j), fn);
  for (std::uint32_t i = 0; i < base.R(); ++i) step_client(reader_id(i), fn);
}

bool coordinator::migrator_done(register_snapshot* snap) {
  bool done = false;
  FASTREG_CHECK(dep_.visit(k_migrator, [&](automaton& a) {
    const auto& c = dynamic_cast<const store::client&>(a);
    done = c.mig_done();
    if (done && snap != nullptr) *snap = c.mig_snapshot();
  }));
  return done;
}

void coordinator::step() {
  switch (phase_) {
    case phase::idle:
    case phase::done:
      return;
    case phase::reading: {
      register_snapshot snap;
      if (!migrator_done(&snap)) return;
      // Writer floors must be in place BEFORE any server stops nacking
      // the object: otherwise a retried put could race the drain with a
      // timestamp below the seeded state and stall.
      step_clients([&](store::client& c) {
        if (c.self().is_writer()) c.seed_writer_floor(cur_obj_, snap);
      });
      step_client(k_migrator, [&](store::client& c) {
        c.begin_seed(cur_obj_, snap, new_map_->epoch());
      });
      phase_ = phase::seeding;
      return;
    }
    case phase::seeding: {
      if (!migrator_done()) return;
      // Quorum seeded: wake whatever the fence parked. Servers outside
      // the seeded quorum lazily fetch the snapshot on first access.
      step_clients([&](store::client& c) { c.resume_parked(cur_obj_); });
      advance_target();
      return;
    }
  }
}

}  // namespace fastreg::reconfig
