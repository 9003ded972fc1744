// Unit tests of the benchmark itself: the percentile rule, span self
// time, the traced breakdown adding up to op-log latency, and the
// simulator digest's determinism. The workload table is called scaled
// down (a fraction of a second of ops); the CLI has no scale flag beyond
// --seconds.
#include <gtest/gtest.h>

#include <filesystem>

#include "bench.h"
#include "spans.h"
#include "stats.h"

namespace fastreg::bench {
namespace {

// Before any test creates a recorder ring.
const bool rings_sized = (size_recorder_rings(), true);

/// A plan of about `ops` operations of workload `name`.
plan small_plan(const std::string& name, double ops, std::uint64_t seed) {
  const workload* w = find_workload(name);
  EXPECT_NE(w, nullptr);
  const double ops_per_second = w->puts_per_second * (1 + w->gets_per_put);
  return make_plan(*w, seed, ops / ops_per_second);
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyondIt) {
  EXPECT_EQ(supported_percentile(0), 0);
  EXPECT_EQ(supported_percentile(19), 0);
  EXPECT_EQ(supported_percentile(20), 50);
  EXPECT_EQ(supported_percentile(99), 50);
  EXPECT_EQ(supported_percentile(100), 90);
  EXPECT_EQ(supported_percentile(999), 90);
  EXPECT_EQ(supported_percentile(1000), 99);
  EXPECT_DOUBLE_EQ(supported_percentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(supported_percentile(123456), 99.99);
}

TEST(PercentileRule, TailIsCappedBySampleSize) {
  std::vector<std::uint64_t> v(500);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 1000 + i;
  // 500 samples support p90, not p99: the 99th is read at the 90th.
  EXPECT_DOUBLE_EQ(tail_percentile(v, 99), percentile(v, 90));
  EXPECT_LT(tail_percentile(v, 99), percentile(v, 99));
}

TEST(PercentileRule, IntegerTiesInterpolateAcrossTheirUnit) {
  // Three samples of 2 cover [1.5, 2.5); the median rank 2.5 of 5 falls
  // halfway through them.
  const std::vector<std::uint64_t> ties{1, 2, 2, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(ties, 50), 2.0);
  const std::vector<std::uint64_t> distinct{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(distinct, 50), 29.5);
  EXPECT_DOUBLE_EQ(percentile(distinct, 0), 9.5);
  EXPECT_EQ(percentile({}, 50), 0);
}

span make_span(std::uint64_t id, std::uint64_t parent, std::uint64_t a,
               std::uint64_t b) {
  span s;
  s.name = "x";
  s.id = id;
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

TEST(SpanSelfTime, DurationMinusTheUnionOfChildIntervals) {
  const std::vector<span> spans{
      make_span(1, 0, 0, 100),
      // Overlapping children cover [10, 50): 40.
      make_span(2, 1, 10, 30), make_span(3, 1, 20, 50),
      make_span(4, 1, 60, 70),
      // A child running past its parent counts only inside it: [90, 100).
      make_span(5, 1, 90, 120),
      // A grandchild is its child's business, not the root's.
      make_span(6, 4, 62, 68)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100u - 40 - 10 - 10);
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[3], 10u - 6);
  EXPECT_EQ(self[5], 6u);
}

TEST(TracedBreakdown, SumsToOpLogLatencyWithinFivePercent) {
  const auto dir = std::filesystem::current_path() / "unit_trace_abd_read_d1";
  std::filesystem::create_directories(dir);
  const auto r = run(small_plan("abd_read_d1", 2000, 3), dir.string());
  ASSERT_TRUE(r.correct) << r.verdict;
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.metrics.at("trace.whole_ops").value, 1000);
  EXPECT_LE(r.metrics.at("trace.breakdown_residual_frac").value, 0.05);
  // abd reads take two rounds; the second is about half of a read.
  EXPECT_DOUBLE_EQ(r.metrics.at("registers.read_rounds.mean").value, 2.0);
  EXPECT_GT(r.metrics.at("registers.round2_share").value, 0.25);
  double shares = 0;
  for (const char* s :
       {"store.submit_share", "net.wire_out_share", "store.server_queue_share",
        "store.serve_share", "net.wire_back_share",
        "registers.quorum_wait_share", "store.harvest_share"}) {
    EXPECT_GE(r.metrics.at(s).value, 0) << s;
    shares += r.metrics.at(s).value;
  }
  EXPECT_NEAR(shares, 1.0, 0.05);
  EXPECT_TRUE(std::filesystem::exists(dir / "spans.json"));
  EXPECT_TRUE(std::filesystem::exists(dir / "layers.json"));
  EXPECT_TRUE(std::filesystem::exists(dir / "s1.recorder"));
}

TEST(SimDigest, IdenticalAcrossRunsOfOneSeed) {
  const auto p = small_plan("sim_abd", 20000, 5);
  const auto a = run(p, "");
  const auto b = run(p, "");
  ASSERT_TRUE(a.correct) << a.verdict;
  EXPECT_FALSE(a.digest.empty());
  EXPECT_EQ(a.digest_text, b.digest_text);
  EXPECT_EQ(a.digest, b.digest);
  const auto other = run(small_plan("sim_abd", 20000, 6), "");
  EXPECT_NE(a.digest, other.digest);
}

}  // namespace
}  // namespace fastreg::bench
