// The one closed-loop simulator load driver: a seeded closed loop of store
// ops on a sim_store, the twin of the TCP load driver (tcp_driver.h).
// run_store_measured (E12a), run_sim_stress, E9's recovery load, E13's
// simulator parts and the durable-recovery tests all run on it.
//
// Each round does three things in order:
//  1. control(invoked), with the ops issued so far: fault triggers, a
//     coordinator step. It returns true while it still has work, which
//     keeps a drained world looping.
//  2. Every idle client (nothing in flight) with quota left issues its
//     next min(depth, left) ops in ONE invocation step, in client order
//     (callers list writers before readers).
//  3. One step of the timed schedule (`delays`), or of the random
//     schedule when `delays` is null.
// The run ends in the round where nothing is in transit, no client issued
// and control has no work left.
//
// A client's ops are drawn by its next(k) at the moment they are issued,
// from whatever the caller captured -- usually the rng that also drives
// the schedule -- so a seed fixes the whole history.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "sim/world.h"
#include "store/client.h"
#include "store/sim_store.h"

namespace fastreg::benchutil {

/// One client's closed loop on its own session of `depth`.
struct sim_client {
  process_id client;
  std::uint32_t depth{1};
  /// Ops to issue in the whole run.
  std::uint32_t quota{0};
  /// The next k ops (distinct keys), drawn when they are issued.
  std::function<std::vector<store::store_op>(std::uint32_t k)> next;
};

/// Runs every client's quota on `s` to the end (see the file comment).
/// `r` drives the schedule; `control` may be empty.
void drive_sim(store::sim_store& s, rng& r, std::vector<sim_client> clients,
               sim::delay_model* delays,
               const std::function<bool(std::uint64_t invoked)>& control = {});

}  // namespace fastreg::benchutil
