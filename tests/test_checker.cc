// The checkers themselves, validated on hand-crafted histories -- both
// legal ones and ones violating each Section 3.1 condition individually.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "checker/atomicity.h"
#include "checker/history.h"

namespace fastreg::checker {
namespace {

/// Builder for compact history literals. With a nonzero trace_base, op
/// i is traced as trace_base + i.
struct hb {
  history h;
  std::uint64_t trace_base{0};
  [[nodiscard]] std::uint64_t trace() const {
    return trace_base == 0 ? 0 : trace_base + h.ops().size();
  }
  std::size_t write(std::uint64_t inv, std::uint64_t resp, value_t v,
                    int rounds = 1) {
    const auto i = h.begin_op(writer_id(0), true, inv, v, trace());
    h.complete_write(i, resp, rounds);
    return i;
  }
  std::size_t write_mw(std::uint32_t wi, std::uint64_t inv,
                       std::uint64_t resp, value_t v) {
    const auto i = h.begin_op(writer_id(wi), true, inv, v, trace());
    h.complete_write(i, resp, 1);
    return i;
  }
  std::size_t incomplete_write(std::uint64_t inv, value_t v) {
    return h.begin_op(writer_id(0), true, inv, v, trace());
  }
  std::size_t read(std::uint32_t ri, std::uint64_t inv, std::uint64_t resp,
                   value_t v, ts_t ts = 0, int rounds = 1) {
    const auto i = h.begin_op(reader_id(ri), false, inv, {}, trace());
    h.complete_read(i, resp, ts, 0, v, rounds);
    return i;
  }
};

TEST(SwmrChecker, EmptyHistoryIsAtomic) {
  history h;
  EXPECT_TRUE(check_swmr_atomicity(h).ok);
}

TEST(SwmrChecker, SequentialWriteReadIsAtomic) {
  hb b;
  b.write(1, 2, "a");
  b.read(0, 3, 4, "a", 1);
  EXPECT_TRUE(check_swmr_atomicity(b.h).ok);
}

TEST(SwmrChecker, ReadOfBottomBeforeWritesIsAtomic) {
  hb b;
  b.read(0, 1, 2, k_bottom_value);
  b.write(3, 4, "a");
  EXPECT_TRUE(check_swmr_atomicity(b.h).ok);
}

TEST(SwmrChecker, Condition1UnwrittenValue) {
  hb b;
  b.write(1, 2, "a");
  b.read(0, 3, 4, "phantom");
  const auto res = check_swmr_atomicity(b.h);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("condition 1"), std::string::npos);
}

TEST(SwmrChecker, Condition2StaleReadAfterCompletedWrite) {
  hb b;
  b.write(1, 2, "a");
  b.write(3, 4, "b");
  b.read(0, 5, 6, "a");  // must have returned "b" or later
  const auto res = check_swmr_atomicity(b.h);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("condition 2"), std::string::npos);
}

TEST(SwmrChecker, Condition3ReadFromTheFuture) {
  hb b;
  b.read(0, 1, 2, "a");   // returns a value whose write starts later
  b.write(3, 4, "a");
  const auto res = check_swmr_atomicity(b.h);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("condition 3"), std::string::npos);
}

TEST(SwmrChecker, Condition4NewOldInversion) {
  hb b;
  b.incomplete_write(1, "a");  // concurrent with both reads
  b.read(0, 2, 3, "a");
  b.read(1, 4, 5, k_bottom_value);  // succeeds the first read, older value
  const auto res = check_swmr_atomicity(b.h);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("condition 4"), std::string::npos);
}

TEST(SwmrChecker, ConcurrentReadsMayDisagree) {
  hb b;
  b.incomplete_write(1, "a");
  b.read(0, 2, 10, "a");              // overlaps the next read
  b.read(1, 3, 9, k_bottom_value);    // concurrent: no violation
  EXPECT_TRUE(check_swmr_atomicity(b.h).ok);
}

TEST(SwmrChecker, ReadConcurrentWithWriteMayReturnEither) {
  hb b;
  b.write(1, 2, "a");
  b.incomplete_write(3, "b");
  b.read(0, 4, 5, "a");
  b.read(1, 6, 7, "b");
  // Second read is newer: fine. A third read going back would violate.
  EXPECT_TRUE(check_swmr_atomicity(b.h).ok);
  b.read(0, 8, 9, "a");
  EXPECT_FALSE(check_swmr_atomicity(b.h).ok);
}

TEST(SwmrChecker, RegularAllowsInversionAtomicDoesNot) {
  hb b;
  b.incomplete_write(1, "a");
  b.read(0, 2, 3, "a");
  b.read(1, 4, 5, k_bottom_value);
  EXPECT_FALSE(check_swmr_atomicity(b.h).ok);
  EXPECT_TRUE(check_swmr_regular(b.h).ok);  // Section 8's distinction
}

TEST(SwmrChecker, RegularStillForbidsStaleAfterCompletedWrite) {
  hb b;
  b.write(1, 2, "a");
  b.read(0, 3, 4, k_bottom_value);
  EXPECT_FALSE(check_swmr_regular(b.h).ok);
}

TEST(SwmrChecker, DuplicateWriteValuesRejected) {
  hb b;
  b.write(1, 2, "same");
  b.write(3, 4, "same");
  const auto res = check_swmr_atomicity(b.h);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("unique"), std::string::npos);
}

TEST(SwmrChecker, MultiWriterHistoryRejected) {
  // The SWMR checker refuses histories with more than one writer (they
  // need the full linearizability checker instead).
  history h;
  const auto i1 = h.begin_op(writer_id(0), true, 1, "a");
  h.complete_write(i1, 2, 1);
  const auto i2 = h.begin_op(writer_id(1), true, 3, "b");
  h.complete_write(i2, 4, 1);
  const auto res = check_swmr_atomicity(h);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("more than one writer"), std::string::npos);
}

TEST(Fastness, FlagsSlowOps) {
  hb b;
  b.read(0, 1, 2, k_bottom_value, 0, /*rounds=*/2);
  EXPECT_TRUE(check_fastness(b.h, 2, 1).ok);
  EXPECT_FALSE(check_fastness(b.h, 1, 1).ok);
}

// ------------------------------------------------------- linearizability

TEST(Linearizable, SequentialHistory) {
  hb b;
  b.write_mw(0, 1, 2, "x");
  b.read(0, 3, 4, "x");
  b.write_mw(1, 5, 6, "y");
  b.read(1, 7, 8, "y");
  EXPECT_TRUE(check_linearizable(b.h).ok);
}

TEST(Linearizable, ConcurrentWritesEitherOrder) {
  hb b;
  b.write_mw(0, 1, 10, "x");
  b.write_mw(1, 2, 9, "y");
  b.read(0, 11, 12, "x");  // legal: y then x
  EXPECT_TRUE(check_linearizable(b.h).ok);
}

TEST(Linearizable, P2StyleDisagreementRejected) {
  // Both writes complete, then two sequential reads disagree on the final
  // value: Section 7's property P2 violation.
  hb b;
  b.write_mw(0, 1, 4, "one");
  b.write_mw(1, 2, 5, "two");
  b.read(0, 6, 7, "one");
  b.read(1, 8, 9, "two");
  EXPECT_FALSE(check_linearizable(b.h).ok);
}

TEST(Linearizable, ReadOfOverwrittenValueAfterBothComplete) {
  hb b;
  b.write_mw(0, 1, 2, "old");
  b.write_mw(1, 3, 4, "new");
  b.read(0, 5, 6, "old");  // precedence forces "new"
  EXPECT_FALSE(check_linearizable(b.h).ok);
}

TEST(Linearizable, IncompleteWriteMayOrMayNotTakeEffect) {
  hb b;
  b.h.begin_op(writer_id(0), true, 1, "maybe");  // never completes
  b.read(0, 2, 3, "maybe");
  EXPECT_TRUE(check_linearizable(b.h).ok);

  hb b2;
  b2.h.begin_op(writer_id(0), true, 1, "maybe");
  b2.read(0, 2, 3, k_bottom_value);
  EXPECT_TRUE(check_linearizable(b2.h).ok);
}

TEST(Linearizable, BottomThenValueOrderRespected) {
  hb b;
  b.write_mw(0, 5, 6, "x");
  b.read(0, 1, 2, k_bottom_value);  // precedes the write: fine
  EXPECT_TRUE(check_linearizable(b.h).ok);

  hb b2;
  b2.write_mw(0, 1, 2, "x");
  b2.read(0, 3, 4, k_bottom_value);  // write completed first: violation
  EXPECT_FALSE(check_linearizable(b2.h).ok);
}

TEST(Linearizable, RequiresUniqueValues) {
  hb b;
  b.write_mw(0, 1, 2, "dup");
  b.write_mw(1, 3, 4, "dup");
  EXPECT_FALSE(check_linearizable(b.h).ok);
}

// --------------------------------------- polynomial MWMR checker edges
//
// The cases the cluster reduction must get right; each is also covered
// against the exponential oracle in test_checker_differential.cc.

TEST(MwmrPoly, SequentialMultiWriterHistory) {
  hb b;
  b.write_mw(0, 1, 2, "x");
  b.read(0, 3, 4, "x");
  b.write_mw(1, 5, 6, "y");
  b.read(1, 7, 8, "y");
  EXPECT_TRUE(check_mwmr_linearizable(b.h).ok);
}

TEST(MwmrPoly, ReadConcurrentWithTheWriteItReturns) {
  // The read's whole interval may even contain the write's: valid, the
  // read linearizes just after the write.
  hb b;
  b.write_mw(0, 5, 10, "x");
  b.read(0, 1, 20, "x");
  EXPECT_TRUE(check_mwmr_linearizable(b.h).ok);
  // A second read overlapping the write from the left is fine too.
  b.read(1, 2, 7, "x");
  EXPECT_TRUE(check_mwmr_linearizable(b.h).ok);
}

TEST(MwmrPoly, ReadEntirelyBeforeItsWriteRejected) {
  hb b;
  b.read(0, 1, 2, "x");
  b.write_mw(0, 3, 4, "x");
  const auto res = check_mwmr_linearizable(b.h);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("before its write"), std::string::npos);
}

TEST(MwmrPoly, DuplicateValuesFromDifferentWritersRejectedAsInput) {
  hb b;
  b.write_mw(0, 1, 10, "dup");
  b.write_mw(1, 2, 11, "dup");
  const auto res = check_mwmr_linearizable(b.h);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("unique"), std::string::npos);
  // The message names the second writer: it is an input problem, not a
  // linearizability verdict.
  EXPECT_NE(res.error.find("w2"), std::string::npos) << res.error;
}

TEST(MwmrPoly, WritingBottomRejectedAsInput) {
  hb b;
  b.write_mw(0, 1, 2, k_bottom_value);
  const auto res = check_mwmr_linearizable(b.h);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("bottom"), std::string::npos);
}

TEST(MwmrPoly, PendingWriteMayOrMayNotTakeEffect) {
  // Unobserved pending write: ignorable, bottom reads stay legal.
  hb b;
  b.h.begin_op(writer_id(0), true, 1, "maybe");
  b.read(0, 2, 3, k_bottom_value);
  b.read(1, 4, 5, k_bottom_value);
  EXPECT_TRUE(check_mwmr_linearizable(b.h).ok);

  // Observed pending write: it takes effect; a later read may not
  // travel back to bottom.
  hb b2;
  b2.h.begin_op(writer_id(0), true, 1, "maybe");
  b2.read(0, 2, 3, "maybe");
  b2.read(1, 4, 5, k_bottom_value);
  const auto res = check_mwmr_linearizable(b2.h);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("maybe"), std::string::npos) << res.error;
}

TEST(MwmrPoly, ObservedPendingWriteOrdersAgainstCompletedWrites) {
  // "maybe" never completes but was read before "base" was re-read:
  // cluster(maybe) and cluster(base) must each precede the other.
  hb b;
  b.write_mw(0, 1, 2, "base");
  b.h.begin_op(writer_id(1), true, 3, "maybe");
  b.read(0, 4, 5, "maybe");
  b.read(1, 6, 7, "base");
  EXPECT_FALSE(check_mwmr_linearizable(b.h).ok);
}

TEST(MwmrPoly, BottomValuedInitialReads) {
  // Bottom reads before and concurrent with the first writes are legal;
  // a bottom read strictly after a completed write is not.
  hb b;
  b.read(0, 1, 2, k_bottom_value);
  b.write_mw(0, 1, 10, "x");
  b.read(1, 3, 4, k_bottom_value);  // concurrent with the write: legal
  EXPECT_TRUE(check_mwmr_linearizable(b.h).ok);

  hb b2;
  b2.write_mw(0, 1, 2, "x");
  b2.read(0, 3, 4, k_bottom_value);
  EXPECT_FALSE(check_mwmr_linearizable(b2.h).ok);
}

TEST(MwmrPoly, UnreadCompletedWritesStillOrder) {
  // Nobody reads "a" or "b", but their real-time order plus the reads
  // of "c" pin the linearization; a read of bottom after all three
  // completed must fail even with no read of a/b.
  hb b;
  b.write_mw(0, 1, 2, "a");
  b.write_mw(1, 3, 4, "b");
  b.write_mw(2, 5, 6, "c");
  b.read(0, 7, 8, "c");
  EXPECT_TRUE(check_mwmr_linearizable(b.h).ok);
  b.read(1, 9, 10, k_bottom_value);
  EXPECT_FALSE(check_mwmr_linearizable(b.h).ok);
}

TEST(MwmrPoly, ScalesFarBeyondTheOracleCap) {
  // 40,000 ops in one history: ~3 orders of magnitude past the oracle's
  // 63-op ceiling, and far past anything feasible exponentially.
  hb b;
  std::uint64_t t = 0;
  for (int round = 0; round < 10'000; ++round) {
    const auto w = static_cast<std::uint32_t>(round % 3);
    b.write_mw(w, t + 1, t + 2, "v" + std::to_string(round));
    b.read(0, t + 3, t + 4, "v" + std::to_string(round));
    ++t;
  }
  EXPECT_TRUE(check_mwmr_linearizable(b.h).ok);
  // One stale read at the end flips the verdict.
  b.read(1, t + 10, t + 11, "v0");
  EXPECT_FALSE(check_mwmr_linearizable(b.h).ok);
}

// ------------------------------------------------ the ops a failure names

/// One failure kind: a history, the checker that rejects it, its exact
/// error, and the ops (by index) that error names, in naming order.
struct failure_case {
  const char* name;
  void (*build)(hb&);
  check_result (*check)(const history&);
  const char* error;
  std::vector<std::size_t> named;
};

std::vector<failure_case> failure_cases() {
  const auto atomic = [](const history& h) { return check_swmr_atomicity(h); };
  const auto mwmr = [](const history& h) {
    return check_mwmr_linearizable(h);
  };
  return {
      {"condition 1",
       [](hb& b) {
         b.write(1, 2, "a");
         b.read(0, 3, 4, "phantom");
       },
       atomic,
       "condition 1 violated: read by r1 returned unwritten value "
       "\"phantom\"",
       {1}},
      {"condition 2",
       [](hb& b) {
         b.write(1, 2, "a");
         b.write(3, 4, "b");
         b.read(0, 5, 6, "a");
       },
       atomic,
       "condition 2 violated: read by r1 returned val_1 (\"a\") after "
       "write_2 completed",
       {2, 1}},
      {"condition 3",
       [](hb& b) {
         b.read(0, 1, 2, "a");
         b.write(3, 4, "a");
       },
       atomic,
       "condition 3 violated: read returned val_1 before write_1 was invoked",
       {0, 1}},
      {"condition 4",
       [](hb& b) {
         b.incomplete_write(1, "a");
         b.read(0, 2, 3, "a");
         b.read(1, 4, 5, k_bottom_value);
       },
       atomic,
       "condition 4 violated (new/old inversion): read by r2 returned val_0 "
       "after a read by r1 returned val_1",
       {2, 1}},
      {"two writers",
       [](hb& b) {
         b.write_mw(0, 1, 2, "a");
         b.write_mw(1, 3, 4, "b");
       },
       atomic, "SWMR checker: writes from more than one writer", {1}},
      {"overlapping writes",
       [](hb& b) {
         b.write(1, 5, "a");
         b.write(3, 6, "b");
       },
       atomic, "SWMR checker: overlapping writes in a single-writer run",
       {0, 1}},
      {"repeated SWMR value (names no op)",
       [](hb& b) {
         b.write(1, 2, "same");
         b.write(3, 4, "same");
       },
       atomic, "written values are not unique: \"same\"", {}},
      {"slow write",
       [](hb& b) {
         b.write(1, 2, "a");
         b.write(3, 4, "b", /*rounds=*/2);
       },
       [](const history& h) { return check_fastness(h, 1, 1); },
       "write by w took 2 round-trips (limit 1)", {1}},
      {"MWMR bottom write",
       [](hb& b) { b.write_mw(0, 1, 2, k_bottom_value); }, mwmr,
       "MWMR checker: a write of the bottom (empty) value is "
       "indistinguishable from the initial state; written values must be "
       "non-empty",
       {0}},
      {"MWMR repeated value",
       [](hb& b) {
         b.write_mw(0, 1, 10, "dup");
         b.write_mw(1, 2, 11, "dup");
       },
       mwmr,
       "MWMR checker requires unique written values: \"dup\" written by "
       "both w and w2",
       {0, 1}},
      {"MWMR unwritten value",
       [](hb& b) { b.read(0, 1, 2, "x"); }, mwmr,
       "read by r1 returned unwritten value \"x\"", {0}},
      {"MWMR read from the future",
       [](hb& b) {
         b.read(0, 1, 2, "x");
         b.write_mw(0, 3, 4, "x");
       },
       mwmr, "read by r1 returned \"x\" before its write (by w) was invoked",
       {0, 1}},
      {"MWMR 2-cycle",
       [](hb& b) {
         b.write_mw(0, 1, 4, "one");
         b.write_mw(1, 2, 5, "two");
         b.read(0, 6, 7, "one");
         b.read(1, 8, 9, "two");
       },
       mwmr,
       "not linearizable: values \"two\" and \"one\" must each precede the "
       "other (write of \"two\" by w2 responded before read of \"one\" by r1 "
       "was invoked, and write of \"one\" by w responded before read of "
       "\"two\" by r2 was invoked)",
       {1, 2, 0, 3}},
      {"MWMR 2-cycle through the initial state",
       [](hb& b) {
         b.incomplete_write(1, "maybe");
         b.read(0, 2, 3, "maybe");
         b.read(1, 4, 5, k_bottom_value);
       },
       mwmr,
       "not linearizable: values \"maybe\" and \"\" must each precede the "
       "other (read of \"maybe\" by r1 responded before read of \"\" by r2 "
       "was invoked, and the initial state responded before read of "
       "\"maybe\" by r1 was invoked)",
       {1, 2}},
      {"oracle (names no op)",
       [](hb& b) {
         b.write_mw(0, 1, 2, "old");
         b.write_mw(1, 3, 4, "new");
         b.read(0, 5, 6, "old");
       },
       [](const history& h) { return check_linearizable(h); },
       "history is not linearizable", {}},
  };
}

TEST(CheckerTraces, EachFailureNamesExactlyTheTracesOfItsOps) {
  for (const auto& c : failure_cases()) {
    hb untraced;
    c.build(untraced);
    const auto plain = c.check(untraced.h);
    EXPECT_FALSE(plain.ok) << c.name;
    EXPECT_EQ(plain.error, c.error) << c.name;
    EXPECT_TRUE(plain.traces.empty()) << c.name;

    hb traced;
    traced.trace_base = 0x100;
    c.build(traced);
    const auto res = c.check(traced.h);
    EXPECT_EQ(res.error, plain.error) << c.name;
    std::vector<std::uint64_t> want;
    for (const auto i : c.named) want.push_back(traced.trace_base + i);
    EXPECT_EQ(res.traces, want) << c.name << ": " << res.error;
  }
}

}  // namespace
}  // namespace fastreg::checker
