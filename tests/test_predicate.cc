// White-box tests of the fast-read predicate (Figure 2 line 19 and
// Figure 5 line 19), including the witness cases used inside the paper's
// proofs (Lemma 2 uses a = 1, Lemma 3 uses a = 2, Lemma 4 case <4>2 uses
// a = R+1).
#include <gtest/gtest.h>

#include <vector>

#include "common/seen_set.h"
#include "registers/predicate.h"

namespace fastreg {
namespace {

seen_set mk(std::initializer_list<process_id> ids) {
  seen_set s;
  for (const auto& p : ids) s.insert(p);
  return s;
}

/// S - t messages whose seen sets all contain the reader: Lemma 2's case
/// (every server echoed the reader's own write-back), a = 1 must fire.
TEST(Predicate, Lemma2CaseAEquals1) {
  const std::uint32_t S = 8, t = 1, R = 4;
  std::vector<seen_set> seen(S - t, mk({reader_id(0)}));
  EXPECT_TRUE(fast_read_predicate(std::span<const seen_set>(seen), S, t, 0, R));
  EXPECT_GE(fast_read_predicate_witness(std::span<const seen_set>(seen), S, t,
                                        0, R),
            1u);
}

/// Lemma 3: after a complete write, S - 2t messages carry {w, r_j}: the
/// predicate must hold with a = 2.
TEST(Predicate, Lemma3CaseAEquals2) {
  const std::uint32_t S = 8, t = 2, R = 1;  // S - 2t = 4 messages
  std::vector<seen_set> seen(S - 2 * t, mk({writer_id(0), reader_id(0)}));
  EXPECT_TRUE(fast_read_predicate(std::span<const seen_set>(seen), S, t, 0, R));
}

/// Fewer than S - 2t messages with a 2-element intersection, and no
/// 1-element intersection of size S - t: predicate must fail.
TEST(Predicate, FailsBelowThreshold) {
  const std::uint32_t S = 8, t = 2, R = 1;
  // Only 3 < S - 2t = 4 messages, each seen by {w, r1}.
  std::vector<seen_set> seen(3, mk({writer_id(0), reader_id(0)}));
  EXPECT_FALSE(
      fast_read_predicate(std::span<const seen_set>(seen), S, t, 0, R));
}

/// The a = R+1 case: all R+1 clients in every seen set, S - (R+1)t
/// messages suffice.
TEST(Predicate, MaxWitnessAEqualsRPlus1) {
  const std::uint32_t S = 10, t = 2, R = 2;  // S - (R+1)t = 4
  seen_set all = mk({writer_id(0), reader_id(0), reader_id(1)});
  std::vector<seen_set> seen(4, all);
  EXPECT_TRUE(fast_read_predicate(std::span<const seen_set>(seen), S, t, 0, R));
  EXPECT_EQ(fast_read_predicate_witness(std::span<const seen_set>(seen), S, t,
                                        0, R),
            R + 1);
}

/// Mixed seen sets: the witness subset must be *common* to >= S - at
/// messages; disjoint pairs do not combine.
TEST(Predicate, IntersectionMustBeCommon) {
  const std::uint32_t S = 6, t = 1, R = 2;
  // 5 = S - t messages but their seen sets share no single client:
  std::vector<seen_set> seen = {
      mk({writer_id(0)}),  mk({reader_id(0)}), mk({reader_id(1)}),
      mk({reader_id(0)}),  mk({writer_id(0)}),
  };
  // a=1 needs 5 messages sharing one client: max count is 2. a=2 needs
  // S-2t=4 sharing two clients: impossible. a=3 needs 3 sharing three.
  EXPECT_FALSE(
      fast_read_predicate(std::span<const seen_set>(seen), S, t, 0, R));
}

/// A qualifying subset hidden inside a larger message set is found.
TEST(Predicate, FindsSubsetNotWholeSet) {
  const std::uint32_t S = 6, t = 1, R = 2;
  // 4 = S - 2t messages share {w, r1}; the fifth is unrelated.
  std::vector<seen_set> seen = {
      mk({writer_id(0), reader_id(0)}), mk({writer_id(0), reader_id(0)}),
      mk({writer_id(0), reader_id(0)}), mk({writer_id(0), reader_id(0)}),
      mk({reader_id(1)}),
  };
  EXPECT_TRUE(fast_read_predicate(std::span<const seen_set>(seen), S, t, 0, R));
}

/// Byzantine threshold: |MS| >= S - a*t - (a-1)*b. With b > 0 the same
/// evidence passes at a weaker message count.
TEST(Predicate, ByzantineThresholdLoosensWithA) {
  const std::uint32_t S = 14, t = 2, b = 2, R = 1;
  // a=2 needs S - 2t - b = 8 messages with a 2-element intersection.
  std::vector<seen_set> seen(8, mk({writer_id(0), reader_id(0)}));
  EXPECT_TRUE(fast_read_predicate(std::span<const seen_set>(seen), S, t, b, R));
  // 7 messages are not enough for a=2, and a=1 needs S - t = 12.
  seen.pop_back();
  EXPECT_FALSE(
      fast_read_predicate(std::span<const seen_set>(seen), S, t, b, R));
}

/// Outside the feasible region thresholds can drop to or below zero; the
/// pseudocode then accepts trivially (empty MS). The protocol only runs
/// there when the adversary is demonstrating the lower bound.
TEST(Predicate, DegenerateThresholdIsTrue) {
  const std::uint32_t S = 4, t = 2, R = 3;  // S - at <= 0 for a >= 2
  std::vector<seen_set> seen(1, mk({writer_id(0)}));
  EXPECT_TRUE(fast_read_predicate(std::span<const seen_set>(seen), S, t, 0, R));
}

TEST(Predicate, EmptyMessageSetFailsWhenThresholdPositive) {
  const std::uint32_t S = 8, t = 1, R = 2;
  std::vector<seen_set> seen;
  EXPECT_FALSE(
      fast_read_predicate(std::span<const seen_set>(seen), S, t, 0, R));
}

TEST(Predicate, WitnessZeroWhenFails) {
  const std::uint32_t S = 8, t = 1, R = 2;
  std::vector<seen_set> seen(2, mk({writer_id(0)}));
  EXPECT_EQ(fast_read_predicate_witness(std::span<const seen_set>(seen), S, t,
                                        0, R),
            0u);
}

/// 64 messages fill the one-word membership mask: every bit counts.
TEST(Predicate, WorksAt64Messages) {
  const std::uint32_t S = 66, t = 2, R = 2;
  std::vector<seen_set> seen(64, mk({reader_id(0)}));  // S - t = 64
  EXPECT_TRUE(fast_read_predicate(std::span<const seen_set>(seen), S, t, 0, R));
  seen.pop_back();
  EXPECT_FALSE(
      fast_read_predicate(std::span<const seen_set>(seen), S, t, 0, R));
}

/// One seen set per server, and a deployment has at most 64 servers.
TEST(Predicate, RejectsMoreThan64Messages) {
  const std::uint32_t S = 66, t = 1, R = 2;
  std::vector<seen_set> seen(65, mk({reader_id(0)}));
  EXPECT_DEATH((void)fast_read_predicate(std::span<const seen_set>(seen), S,
                                         t, 0, R),
               "precondition");
}

/// Overload taking messages extracts seen sets correctly.
TEST(Predicate, MessageOverload) {
  const std::uint32_t S = 4, t = 1, R = 1;
  message m;
  m.seen = mk({reader_id(0)});
  std::vector<message> msgs(S - t, m);
  EXPECT_TRUE(fast_read_predicate(std::span<const message>(msgs), S, t, 0, R));
}

}  // namespace
}  // namespace fastreg
