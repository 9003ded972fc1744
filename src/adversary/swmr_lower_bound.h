// Executable version of the Section 5 lower bound (Proposition 5): if
// R >= S/t - 2 there is no fast atomic SWMR register, crash failures only.
//
// The proof constructs a family of partial runs; this module *executes*
// them, as concrete message schedules in the simulator, against any
// protocol that claims fast reads and writes:
//
//   wr     : write(v1) completes, skipping block B_{R+2};
//   pr_i / Delta-pr_i : reads by r_1..r_i with carefully chosen skip sets,
//            where indistinguishability forces each r_i to return v1;
//   pr^A   : r_1's read finally completes having seen *no trace* of the
//            write (only block B_{R+1} received it, and r_1 missed B_{R+1});
//   pr^B   : identical to pr^A but the write never happened -- r_1 cannot
//            tell, so it returns bottom in both;
//   pr^C/pr^D : r_1 reads once more (still missing B_{R+1}); now r_1's
//            bottom read *succeeds* r_R's read of v1: atomicity violated.
//
// Running it against the Figure 2 protocol outside its feasible region
// produces a checker-certified violation; inside the region the partition
// does not exist and the construction reports "not applicable".
//
// This is Section 6.2's construction (bft_lower_bound.h) at b = 0: its
// malicious blocks are empty, so no server turns two-faced, and its
// T-blocks are the B_i above. One implementation runs both.
#pragma once

#include "adversary/report.h"
#include "registers/automaton.h"

namespace fastreg::adversary {

/// Runs the construction against `proto` under `cfg` (uses cfg.S/t/R;
/// b is ignored -- crash model). The protocol must have 1-round reads and
/// writes; this is asserted. The report names the blocks B_1..B_{R'+2}.
[[nodiscard]] construction_report run_swmr_lower_bound(
    const protocol& proto, const system_config& cfg);

}  // namespace fastreg::adversary
