// Executable version of Section 7 (Proposition 11): no fast MWMR atomic
// register exists, even with W = R = 2 and a single crash-faulty server.
//
// The construction runs two concurrent writes -- write(2) by w2 and
// write(1) by w1 -- against a candidate fast implementation, in a series
// of S+1 runs run^1..run^{S+1} that differ only in the per-server order in
// which the two write messages arrive. run^1 is the sequential order
// "w2 then w1 everywhere" (reader must return 1 by property P1);
// run^{S+1} is "w1 then w2 everywhere" (reader must return 2). Somewhere
// in between the reader's answer flips: runs run^{i1} and run^{i1+1}
// differ only at server s_{i1}. Extending both with a read by r2 that
// *skips* s_{i1} makes r2 return the same value in both runs, so in one of
// them the two readers disagree after all writes completed -- violating
// property P2.
//
// The module reports which property breaks first for the candidate
// protocol (strawmen often already fail P1 in run^1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "registers/automaton.h"

namespace fastreg::adversary {

struct mwmr_report {
  /// r1's return value in run^i, for i = 1..S+1.
  std::vector<value_t> series{};
  /// Values written by w1 and w2 ("1" and "2").
  value_t w1_value{};
  value_t w2_value{};

  /// P1 check on the endpoints: run^1 must return w1's value (it is the
  /// last write); run^{S+1} must return w2's value.
  bool p1_ok_run1{false};
  bool p1_ok_runlast{false};

  /// First i with series[i-1] == w1_value and series[i] == w2_value.
  std::optional<std::uint32_t> flip_index{};
  /// r2's values in run' (extends run^{i1}) and run'' (extends run^{i1+1}).
  std::optional<value_t> r2_run_prime{};
  std::optional<value_t> r2_run_doubleprime{};
  /// P2: in run'' r1 returned w2's value; if r2 (skipping s_{i1}) returns
  /// w1's value there, the two complete reads disagree after all writes.
  bool p2_violation{false};

  /// Some property failed somewhere: the protocol is not atomic.
  bool violation{false};
  std::vector<std::string> trace{};
};

/// Runs the construction with W = R = 2, t = 1 and `S` servers against a
/// candidate protocol with one-round reads and writes (asserted).
[[nodiscard]] mwmr_report run_mwmr_lower_bound(const protocol& proto,
                                               std::uint32_t S);

}  // namespace fastreg::adversary
