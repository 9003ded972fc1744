// lower_bound_tour: a guided walk through the Section 5 impossibility
// proof, executed live against the Figure 2 protocol and rendered as the
// paper's Figure 3/4-style block diagrams.
//
// Build & run:  ./build/examples/lower_bound_tour [S] [t] [R]
#include <cstdio>
#include <cstdlib>

#include "adversary/blocks.h"
#include "adversary/swmr_lower_bound.h"
#include "registers/registry.h"

using namespace fastreg;
using namespace fastreg::adversary;

namespace {

/// Renders a Figure 3-style diagram: one column per invocation, one row
/// per block B_1..B_{R'+2}; '#' = the block received & answered the
/// invocation's message, '.' = skipped.
void diagram(const bft_partition& sp,
             const std::vector<std::pair<std::string, std::vector<bool>>>&
                 columns) {
  std::printf("        ");
  for (const auto& [name, _] : columns) std::printf("%-6s", name.c_str());
  std::printf("\n");
  for (std::size_t b = 0; b < sp.readers_used + 2; ++b) {
    std::printf("  B%-3zu  ", b + 1);
    for (const auto& [_, hits] : columns) {
      std::printf("%-6s", hits[b] ? "#" : ".");
    }
    std::printf("  (%zu servers)\n", sp.part.block(b).size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t S = argc > 1 ? std::atoi(argv[1]) : 8;
  std::uint32_t t = argc > 2 ? std::atoi(argv[2]) : 2;
  std::uint32_t R = argc > 3 ? std::atoi(argv[3]) : 2;

  std::printf("lower_bound_tour: S=%u t=%u R=%u\n", S, t, R);
  std::printf("fast atomic SWMR needs R < S/t - 2 = %.1f; here R = %u -> "
              "%s\n\n",
              static_cast<double>(S) / t - 2, R,
              fast_swmr_feasible(S, t, R) ? "FEASIBLE (pick an infeasible "
                                            "config to see the violation)"
                                          : "INFEASIBLE: the construction "
                                            "below breaks any fast "
                                            "implementation");

  // Section 5's partition is Section 6.2's with no malicious blocks
  // (b = 0): its T-blocks are B_1..B_{R'+2}.
  const auto sp = make_bft_partition(S, t, /*b=*/0, R);
  if (!sp) {
    std::printf("no block partition exists -- the configuration is in the "
                "feasible region, where Figure 2's protocol is proven "
                "correct. Try: lower_bound_tour 8 2 2\n");
    return 0;
  }
  const std::uint32_t rp = sp->readers_used;
  std::printf("step 0: partition the %u servers into %u blocks of <= t:\n",
              S, rp + 2);
  {
    std::vector<std::string> names;
    for (std::uint32_t j = 1; j <= rp + 2; ++j) {
      names.push_back("B" + std::to_string(j));
    }
    std::printf("  %s\n\n", sp->part.describe(names).c_str());
  }

  std::printf("step 1: the final partial run Delta-pr_%u "
              "(paper Fig. 3), as a block diagram:\n",
              rp);
  {
    std::vector<std::pair<std::string, std::vector<bool>>> cols;
    // write column: reaches only B_{R'+1}.
    std::vector<bool> wr_col(rp + 2, false);
    wr_col[rp] = true;
    cols.emplace_back("w", wr_col);
    for (std::uint32_t h = 1; h <= rp; ++h) {
      std::vector<bool> col(rp + 2, false);
      for (std::size_t j = 0; j + 1 < h; ++j) col[j] = true;
      col[rp] = true;
      col[rp + 1] = true;
      cols.emplace_back("r" + std::to_string(h), col);
    }
    diagram(*sp, cols);
  }
  std::printf("  each r_h misses blocks B_h..B_%u; indistinguishability "
              "from runs where the write completed forces every read to "
              "return the written value.\n\n",
              rp);

  std::printf("step 2: execute the construction against fast_swmr:\n\n");
  system_config cfg;
  cfg.servers = S;
  cfg.t_failures = t;
  cfg.readers = R;
  const auto rep = run_swmr_lower_bound(*make_protocol("fast_swmr"), cfg);
  for (const auto& line : rep.trace) std::printf("  %s\n", line.c_str());

  std::printf("\nsummary: %s\n", rep.summary().c_str());
  std::printf("\nthe punchline (paper Fig. 4): r1's two reads miss "
              "B_%u -- the only block that saw the write -- so r1 returns "
              "the initial value AFTER r%u returned the written value. "
              "Condition 4 of atomicity cannot survive this, no matter "
              "what a one-round protocol does.\n",
              rp + 1, rp);
  return 0;
}
