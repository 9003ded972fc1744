// Executable version of the Section 6.2 lower bound (Proposition 10): if
// (R+2)t + (R+1)b >= S there is no fast atomic SWMR register, even with
// writer signatures, when up to b of the t faulty servers are malicious.
//
// The schedule mirrors Section 5 but splits servers into T-blocks (crash
// budget, size <= t) and B-blocks (malicious budget, size <= b). The
// malicious blocks' only deviation is the paper's "loses its memory /
// two-faced" behaviour: B_{R+1} answers r_1 from a shadow state that never
// saw the write while answering everyone else honestly -- a deviation that
// signatures cannot detect, because withholding a signed value is not
// forgery. That is exactly why b weakens the bound from S > (R+2)t to
// S > (R+2)t + (R+1)b.
//
// At b = 0 the B-blocks are empty and the schedule is Section 5's
// (swmr_lower_bound.h); run_swmr_lower_bound runs this code with b = 0.
#pragma once

#include "adversary/report.h"
#include "registers/automaton.h"

namespace fastreg::adversary {

/// Runs the construction against `proto` under `cfg` (uses S, t, b, R).
/// The protocol must have 1-round reads and writes. cfg.sigs must be set
/// if the protocol needs signatures.
[[nodiscard]] construction_report run_bft_lower_bound(
    const protocol& proto, const system_config& cfg);

}  // namespace fastreg::adversary
