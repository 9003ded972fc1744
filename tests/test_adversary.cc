// The executable lower bounds: the Section 5 / 6.2 / 7 constructions must
// (a) produce checker-certified atomicity violations exactly outside the
// feasible region, and (b) report "not applicable" inside it.
#include <gtest/gtest.h>

#include <tuple>

#include "adversary/bft_lower_bound.h"
#include "adversary/blocks.h"
#include "adversary/mwmr_lower_bound.h"
#include "adversary/swmr_lower_bound.h"
#include "registers/registry.h"
#include "sim_test_util.h"

namespace fastreg::adversary {
namespace {

using test::make_cfg;

// -------------------------------------------------------------- partitions

// Section 5's crash-model partition is Section 6.2's at b = 0.

TEST(Blocks, SwmrPartitionExistsIffInfeasible) {
  // S=8, t=2: fast feasible iff R < 2. R=2 -> partition exists.
  EXPECT_TRUE(make_bft_partition(8, 2, 0, 2).has_value());
  // S=9, t=2, R=2: 9 > 8 feasible -> no partition.
  EXPECT_FALSE(make_bft_partition(9, 2, 0, 2).has_value());
  EXPECT_FALSE(make_bft_partition(8, 0, 0, 5).has_value());
}

TEST(Blocks, SwmrPartitionShapes) {
  const auto sp = make_bft_partition(8, 2, 0, 4);
  ASSERT_TRUE(sp.has_value());
  // Minimal R' with (R'+2)*2 >= 8 is R'=2.
  EXPECT_EQ(sp->readers_used, 2u);
  ASSERT_EQ(sp->part.block_count(), 7u);  // T_1..T_4, B_1..B_3
  std::uint32_t total = 0;
  for (std::size_t j = 1; j <= 4; ++j) {
    EXPECT_LE(sp->part.block(sp->T(j)).size(), 2u);
    total += sp->part.block(sp->T(j)).size();
  }
  EXPECT_EQ(total, 8u);
  for (std::size_t j = 1; j <= 3; ++j) {
    EXPECT_TRUE(sp->part.block(sp->B(j)).empty());
  }
  // T_{R'+1} must be non-empty: it alone receives the write.
  EXPECT_FALSE(sp->part.block(sp->T(sp->readers_used + 1)).empty());
}

TEST(Blocks, BftPartitionRespectsBothCaps) {
  // S=12, t=2, b=1, R=3: (R'+2)*2 + (R'+1)*1 >= 12 -> R'=2 gives 8+3=11 <
  // 12; R'=3 gives 10+4=14 >= 12.
  const auto bp = make_bft_partition(12, 2, 1, 3);
  ASSERT_TRUE(bp.has_value());
  EXPECT_EQ(bp->readers_used, 3u);
  const std::uint32_t rp = bp->readers_used;
  std::uint32_t total = 0;
  for (std::size_t j = 0; j < rp + 2; ++j) {
    EXPECT_LE(bp->part.block(j).size(), 2u);  // T-blocks: cap t
    total += bp->part.block(j).size();
  }
  for (std::size_t j = rp + 2; j < 2 * rp + 3; ++j) {
    EXPECT_LE(bp->part.block(j).size(), 1u);  // B-blocks: cap b
    total += bp->part.block(j).size();
  }
  EXPECT_EQ(total, 12u);
  EXPECT_FALSE(bp->part.block(rp).empty());  // T_{R'+1}
}

TEST(Blocks, MembershipUnionsBlocks) {
  const auto sp = make_bft_partition(8, 2, 0, 2);
  ASSERT_TRUE(sp.has_value());
  const auto in = sp->part.membership({0, 1}, 8);
  std::uint32_t count = 0;
  for (bool x : in) count += x ? 1 : 0;
  EXPECT_EQ(count,
            sp->part.block(0).size() + sp->part.block(1).size());
}

// ------------------------------------------------- Section 5 (crash model)

struct lb_case {
  std::uint32_t S, t, R;
};

class SwmrLowerBound
    : public ::testing::TestWithParam<lb_case> {};

TEST_P(SwmrLowerBound, ViolatesAtomicityOutsideFeasibleRegion) {
  const auto c = GetParam();
  ASSERT_FALSE(fast_swmr_feasible(c.S, c.t, c.R));
  const auto rep =
      run_swmr_lower_bound(*make_protocol("fast_swmr"), make_cfg(c.S, c.t, c.R));
  ASSERT_TRUE(rep.applicable) << rep.reason;
  // The proof's induction: every chained read returned the written value.
  for (const auto& v : rep.chain) EXPECT_EQ(v, rep.written_value);
  // r1 saw no trace of the write in either completing read.
  EXPECT_EQ(*rep.read_pr_a, k_bottom_value);
  EXPECT_EQ(*rep.read_pr_c, k_bottom_value);
  // r1 could not distinguish the write/no-write siblings.
  EXPECT_TRUE(rep.indistinguishability_ok);
  // And the checker certifies the new/old inversion.
  EXPECT_TRUE(rep.violation) << rep.summary();
  EXPECT_NE(rep.checker_error.find("condition 4"), std::string::npos)
      << rep.checker_error;
}

INSTANTIATE_TEST_SUITE_P(
    InfeasibleConfigs, SwmrLowerBound,
    ::testing::Values(lb_case{4, 1, 2},    // boundary: S = (R+2)t
                      lb_case{8, 2, 2},    //
                      lb_case{6, 1, 4},    //
                      lb_case{12, 3, 2},   //
                      lb_case{10, 2, 3},   //
                      lb_case{7, 2, 2},    // uneven blocks
                      lb_case{11, 3, 4},   // R' < R
                      lb_case{5, 3, 2}));  // t > S/2

TEST(SwmrLowerBoundNA, NotApplicableInFeasibleRegion) {
  for (const auto c : {lb_case{9, 2, 2}, lb_case{8, 1, 2}, lb_case{25, 4, 3}}) {
    ASSERT_TRUE(fast_swmr_feasible(c.S, c.t, c.R));
    const auto rep = run_swmr_lower_bound(*make_protocol("fast_swmr"),
                                          make_cfg(c.S, c.t, c.R));
    EXPECT_FALSE(rep.applicable) << c.S << "," << c.t << "," << c.R;
  }
}

// --------------------------------------------- Section 6.2 (byzantine model)

struct bft_lb_case {
  std::uint32_t S, t, b, R;
};

class BftLowerBound : public ::testing::TestWithParam<bft_lb_case> {};

TEST_P(BftLowerBound, ViolatesAtomicityOutsideFeasibleRegion) {
  const auto c = GetParam();
  ASSERT_FALSE(fast_bft_feasible(c.S, c.t, c.b, c.R));
  const auto rep = run_bft_lower_bound(
      *make_protocol("fast_bft"), make_cfg(c.S, c.t, c.R, c.b, 1, "oracle"));
  ASSERT_TRUE(rep.applicable) << rep.reason;
  for (const auto& v : rep.chain) EXPECT_EQ(v, rep.written_value);
  EXPECT_EQ(*rep.read_pr_a, k_bottom_value);
  EXPECT_EQ(*rep.read_pr_c, k_bottom_value);
  EXPECT_TRUE(rep.indistinguishability_ok);
  EXPECT_TRUE(rep.violation) << rep.summary();
}

INSTANTIATE_TEST_SUITE_P(
    InfeasibleConfigs, BftLowerBound,
    ::testing::Values(bft_lb_case{8, 2, 0, 2},    // b = 0 degenerates to S5
                      bft_lb_case{11, 2, 1, 2},   // boundary: 8+3 = 11
                      bft_lb_case{10, 2, 1, 2},   //
                      bft_lb_case{14, 2, 2, 2},   // 8+6 = 14
                      bft_lb_case{17, 3, 2, 2},   // uneven
                      bft_lb_case{13, 2, 1, 4})); // R' < R

TEST(BftLowerBoundNA, NotApplicableInFeasibleRegion) {
  const auto rep = run_bft_lower_bound(
      *make_protocol("fast_bft"), make_cfg(12, 2, 2, 1, 1, "oracle"));
  EXPECT_FALSE(rep.applicable);  // 12 > (4)*2 + 3*1 = 11: feasible
}

// ------------------------------------------------------- Section 7 (MWMR)

TEST(MwmrLowerBound, NaiveFastMwmrIsNotAtomic) {
  for (const std::uint32_t S : {3u, 5u, 8u}) {
    const auto rep =
        run_mwmr_lower_bound(*make_protocol("naive_fast_mwmr"), S);
    EXPECT_TRUE(rep.violation) << "S=" << S;
    EXPECT_EQ(rep.series.size(), S + 1);
  }
}

TEST(MwmrLowerBound, SeriesEndpointsExposeP1) {
  // The naive protocol orders by writer id, so even run^1 (sequential
  // w2;w1) returns w2's value: property P1 is violated immediately.
  const auto rep = run_mwmr_lower_bound(*make_protocol("naive_fast_mwmr"), 4);
  EXPECT_FALSE(rep.p1_ok_run1);
  EXPECT_EQ(rep.series.front(), rep.w2_value);
}

}  // namespace
}  // namespace fastreg::adversary
