// Verifiers for the correctness conditions of Section 3.
//
// Single-writer checks (exact for SWMR histories with unique values):
//
//  * check_swmr_atomicity -- the four conditions of Section 3.1, verbatim:
//      (1) every read returns some written value (bottom counts as val_0);
//      (2) a read that succeeds write_k returns val_l with l >= k;
//      (3) a read returning val_k (k >= 1) is preceded by or concurrent
//          with write_k;
//      (4) if rd2 succeeds rd1 then rd2 returns a value at least as new.
//    O(n log n).
//
//  * check_swmr_regular -- conditions (1)-(3) only: a regular register
//    admits new/old inversions between reads (Section 8), so condition (4)
//    is dropped.
//
// Multi-writer linearizability (Section 7's generalized model) comes in
// two flavors that must agree -- the fast one is the default everywhere,
// the slow one is kept as a differential-testing oracle:
//
//  * check_mwmr_linearizable -- polynomial-time register linearizability
//    in the Gibbons & Korach style: because written values are unique,
//    every read names its dictating write, so linearizability reduces to
//    the acyclicity of a precedence relation over per-value clusters
//    (the write of v plus every read returning v). Any cycle in that
//    relation contains a 2-cycle, which an O(n log n) sweep finds.
//    Input assumptions, rejected (not mis-verified) when violated:
//      - written values are unique across ALL writes, complete or not;
//      - no write writes bottom (the empty value is reserved for the
//        initial state).
//    Incomplete reads are ignored (they never have to take effect);
//    incomplete writes take effect iff some completed read returned
//    their value. This matches check_linearizable's semantics exactly.
//    O(n log n) per history -- the checker that lets MWMR stress runs
//    scale to millions of operations.
//
//  * check_linearizable -- the same property via a Wing&Gong-style
//    exhaustive search with memoization. Exponential worst case; capped
//    at 63 operations. Kept ONLY as the oracle the polynomial checker is
//    differentially tested against (test_checker_differential.cc) and
//    for the small adversarial histories of Section 7.
//
//  * check_fastness -- every completed operation used at most the stated
//    number of round-trips (Section 3.2's fast-implementation property,
//    measured rather than assumed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checker/history.h"

namespace fastreg::checker {

struct check_result {
  bool ok{true};
  std::string error{};
  /// The nonzero trace ids of the ops `error` names, in order, each once.
  std::vector<std::uint64_t> traces{};

  explicit operator bool() const { return ok; }
};

[[nodiscard]] check_result check_swmr_atomicity(const history& h);
[[nodiscard]] check_result check_swmr_regular(const history& h);
[[nodiscard]] check_result check_mwmr_linearizable(const history& h);
[[nodiscard]] check_result check_linearizable(const history& h);
[[nodiscard]] check_result check_fastness(const history& h,
                                          int max_read_rounds,
                                          int max_write_rounds);

}  // namespace fastreg::checker
