// Observability: registry concurrency, histogram accuracy, the
// streaming bench accumulator, and the stats_req/stats_ack scrape on
// both deployments. The concurrent cases double as the TSan surface for
// the metrics hot path (run with -DFASTREG_SANITIZE=thread); the
// recorder's reactor-thread surface is in test_recorder.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "benchutil/stats.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "store/sim_store.h"
#include "store/tcp_store.h"
#include "store_test_util.h"

namespace fastreg {
namespace {

store::store_config small_store_cfg(std::vector<std::string> protos,
                                    std::uint32_t num_shards = 2,
                                    std::uint32_t R = 2) {
  store::store_config cfg;
  cfg.base.servers = 5;
  cfg.base.t_failures = 1;
  cfg.base.readers = R;
  cfg.base.writers = 1;
  cfg.num_shards = num_shards;
  cfg.shard_protocols = std::move(protos);
  return cfg;
}

// --------------------------------------------------------------- registry

TEST(ObsRegistry, ConcurrentIncrementsAreExact) {
  auto& c = obs::registry::instance().get_counter(
      "test_obs_concurrent_total");
  c.reset();
  constexpr int k_threads = 8;
  constexpr std::uint64_t k_incs = 20'000;
  std::vector<std::thread> ts;
  for (int i = 0; i < k_threads; ++i) {
    ts.emplace_back([&] {
      for (std::uint64_t n = 0; n < k_incs; ++n) c.inc();
    });
  }
  // Snapshot concurrently with the writers: reads must be race-free
  // (relaxed) and monotone in what they CAN observe.
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const auto snap = obs::snapshot();
    EXPECT_FALSE(snap.empty());
    const auto v = c.value();
    EXPECT_GE(v, last);
    last = v;
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), k_threads * k_incs);
}

TEST(ObsRegistry, SameNameSameLabelsSameHandle) {
  auto& a = obs::registry::instance().get_counter("test_obs_handle_total",
                                                  "node=\"x\"");
  auto& b = obs::registry::instance().get_counter("test_obs_handle_total",
                                                  "node=\"x\"");
  auto& other = obs::registry::instance().get_counter(
      "test_obs_handle_total", "node=\"y\"");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
}

TEST(ObsRegistry, GaugeTracksLevels) {
  auto& g = obs::registry::instance().get_gauge("test_obs_gauge");
  g.reset();
  g.add(5);
  g.add(-2);
  EXPECT_EQ(g.value(), 3);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

// -------------------------------------------------------------- histogram

TEST(ObsHistogram, PercentileWithinBucketError) {
  obs::histogram h;
  rng r(11);
  std::vector<std::uint64_t> vals;
  for (int i = 0; i < 20'000; ++i) {
    // Log-uniform over ~6 decades: exercises many octaves.
    const double e = r.uniform01() * 6.0;
    vals.push_back(static_cast<std::uint64_t>(std::pow(10.0, e)));
    h.observe(vals.back());
  }
  std::sort(vals.begin(), vals.end());
  EXPECT_EQ(h.count(), vals.size());
  EXPECT_EQ(h.min(), vals.front());
  EXPECT_EQ(h.max(), vals.back());
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    const auto exact =
        vals[static_cast<std::size_t>(p / 100.0 *
                                      static_cast<double>(vals.size() - 1))];
    const auto est = h.percentile(p);
    // 8 sub-buckets per octave: worst-case relative quantization ~9%;
    // allow a little headroom for the rank-vs-interpolation difference.
    EXPECT_NEAR(static_cast<double>(est), static_cast<double>(exact),
                0.15 * static_cast<double>(exact))
        << "p" << p;
  }
}

TEST(ObsHistogram, BucketIndexRoundTrips) {
  for (const std::uint64_t v :
       {0ull, 1ull, 7ull, 64ull, 1'000ull, 123'456'789ull}) {
    const auto idx = obs::histogram::bucket_index(v);
    ASSERT_LT(idx, obs::histogram::k_buckets);
    const auto rep = obs::histogram::bucket_value(idx);
    if (v == 0) {
      EXPECT_EQ(rep, 0u);
    } else {
      EXPECT_NEAR(static_cast<double>(rep), static_cast<double>(v),
                  0.2 * static_cast<double>(v));
    }
  }
}

// ------------------------------------------------- streaming bench stats

TEST(StreamHist, DifferentialAgainstExactStats) {
  benchutil::stats exact;
  benchutil::stream_hist stream;
  rng r(23);
  for (int i = 0; i < 50'000; ++i) {
    // Latency-shaped: a lognormal-ish spread with sub-integer values.
    const double v = std::pow(10.0, 1.0 + 3.0 * r.uniform01()) / 16.0;
    exact.add(v);
    stream.add(v);
  }
  EXPECT_EQ(stream.count(), exact.count());
  EXPECT_NEAR(stream.mean(), exact.mean(), 1e-9 * exact.mean());
  EXPECT_DOUBLE_EQ(stream.min(), exact.min());
  EXPECT_DOUBLE_EQ(stream.max(), exact.max());
  for (const double p : {1.0, 50.0, 90.0, 99.0}) {
    EXPECT_NEAR(stream.percentile(p), exact.percentile(p),
                0.10 * exact.percentile(p))
        << "p" << p;
  }
}

TEST(StreamHist, EmptyAndReset) {
  benchutil::stream_hist s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.p50(), 0.0);
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.max(), 0.0);
}

// ------------------------------------------------------------ text dump

TEST(ObsDump, RenderValidatesAndGarbageDoesNot) {
  obs::registry::instance().get_counter("test_obs_dump_total").inc();
  obs::registry::instance()
      .get_histogram("test_obs_dump_ns", "node=\"s1\"")
      .observe(42);
  const auto text = obs::render_text();
  EXPECT_EQ(obs::validate_dump(text), "");
  EXPECT_NE(text.find("test_obs_dump_total"), std::string::npos);
  EXPECT_NE(text.find("test_obs_dump_ns_p50{node=\"s1\"}"),
            std::string::npos);

  EXPECT_NE(obs::validate_dump("not a metric line\n"), "");
  EXPECT_NE(obs::validate_dump("name{unquoted=x} 1\n"), "");
  EXPECT_NE(obs::validate_dump("name{a=\"b\"} not_a_number\n"), "");
  EXPECT_EQ(obs::validate_dump("plain_name 3.25\n"), "");
}

// -------------------------------------------------------- scrape: sim

TEST(ObsScrape, SimStatsRoundTrip) {
  store::sim_store s(small_store_cfg({"fast_swmr", "abd"}));
  rng r(5);
  store::test::sim_clients clients(s, r);
  for (int n = 1; n <= 6; ++n) {
    clients.put(0, "k" + std::to_string(n % 3), "v" + std::to_string(n));
    s.run_random(r, 10'000);
  }
  const auto dump = s.scrape(0, r);
  ASSERT_FALSE(dump.empty());
  EXPECT_EQ(obs::validate_dump(dump), "") << dump.substr(0, 200);
  // The scraped server counted its own ops under its node label.
  EXPECT_NE(dump.find("fastreg_store_ops_total{node=\"s1\"}"),
            std::string::npos);
}

// -------------------------------------------------------- scrape: TCP

TEST(ObsScrape, TcpStatsRoundTripOverRawSocket) {
  store::tcp_store ts(small_store_cfg({"fast_swmr", "abd"}));
  ts.start();
  auto& fe = ts.frontend();
  ASSERT_TRUE(store::test::put_one(fe, 0, "alpha", "a1"));
  const auto a = store::test::get_one(fe, 0, "alpha");
  ASSERT_TRUE(a.has_value());
  const auto dump = ts.scrape(0);
  ASSERT_FALSE(dump.empty());
  EXPECT_EQ(obs::validate_dump(dump), "") << dump.substr(0, 200);
  EXPECT_NE(dump.find("fastreg_store_ops_total"), std::string::npos);
  EXPECT_NE(dump.find("fastreg_net_frames_in_total"), std::string::npos);
  // Live traffic keeps flowing after a scrape.
  ASSERT_TRUE(store::test::put_one(fe, 0, "alpha", "a2"));
  const auto b = store::test::get_one(fe, 1, "alpha");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->val, "a2");
  EXPECT_TRUE(ts.gather().verify().ok);
  ts.stop();
}

// A scrape against a dead port fails cleanly instead of hanging.
TEST(ObsScrape, TcpScrapeTimesOutCleanly) {
  store::tcp_store ts(small_store_cfg({"abd"}));
  ts.start();
  ts.stop();  // ports are now closed
  const auto dump = ts.scrape(0, std::chrono::milliseconds(200));
  EXPECT_TRUE(dump.empty());
}

// ------------------------------------------- interval (delta) scraping

/// The sample named exactly `name` (labels included), or nullptr.
const obs::sample* find_row(const std::vector<obs::sample>& rows,
                            const std::string& name) {
  const auto it =
      std::find_if(rows.begin(), rows.end(),
                   [&](const obs::sample& s) { return s.name == name; });
  return it == rows.end() ? nullptr : &*it;
}

TEST(ObsSnapshot, DiffSubtractsCumulativeAndKeepsLevels) {
  auto& c = obs::registry::instance().get_counter("test_diff_total");
  auto& g = obs::registry::instance().get_gauge("test_diff_level");
  auto& h = obs::registry::instance().get_histogram("test_diff_us");
  c.reset();
  g.set(3);
  h.reset();
  h.observe(10);
  const auto prev = obs::snapshot();
  c.inc(7);
  g.set(5);
  h.observe(20);
  h.observe(30);
  const auto delta = obs::diff_snapshot(obs::snapshot(), prev);
  // Cumulative rows subtract; level rows pass through at current value.
  const auto* dc = find_row(delta, "test_diff_total");
  ASSERT_NE(dc, nullptr);
  EXPECT_EQ(dc->value, 7);
  const auto* dg = find_row(delta, "test_diff_level");
  ASSERT_NE(dg, nullptr);
  EXPECT_EQ(dg->value, 5);
  const auto* dn = find_row(delta, "test_diff_us_count");
  ASSERT_NE(dn, nullptr);
  EXPECT_EQ(dn->value, 2);
  const auto* ds = find_row(delta, "test_diff_us_sum");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->value, 50);
  // A series absent from prev deltas from zero.
  auto& fresh =
      obs::registry::instance().get_counter("test_diff_fresh_total");
  fresh.reset();
  fresh.inc(4);
  const auto delta2 = obs::diff_snapshot(obs::snapshot(), prev);
  const auto* df = find_row(delta2, "test_diff_fresh_total");
  ASSERT_NE(df, nullptr);
  EXPECT_EQ(df->value, 4);
}

TEST(ObsSnapshot, IntervalScrapeRollsItsBaselineForward) {
  auto& c =
      obs::registry::instance().get_counter("test_interval_total");
  c.reset();
  obs::interval_scrape scrape;
  c.inc(5);
  // Each delta is held in a named vector: find_row points into it.
  const auto d1 = scrape.take();
  const auto* first = find_row(d1, "test_interval_total");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->value, 5);
  c.inc(3);
  const auto d2 = scrape.take();
  const auto* second = find_row(d2, "test_interval_total");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->value, 3);
  // Nothing moved: the delta is zero, and the dump still validates.
  const auto third = scrape.take();
  const auto* idle = find_row(third, "test_interval_total");
  ASSERT_NE(idle, nullptr);
  EXPECT_EQ(idle->value, 0);
  EXPECT_EQ(obs::validate_dump(obs::render_samples(third)), "");
}

TEST(ObsDump, AnnotatedRowsAllCarryANodeLabel) {
  (void)obs::registry::instance().get_counter("test_annot_plain_total");
  (void)obs::registry::instance().get_counter("test_annot_owned_total",
                                              "node=\"server:3\"");
  const auto text = obs::render_text_annotated("reader:1");
  EXPECT_EQ(obs::validate_dump(text), "");
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    auto end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const auto line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    ++lines;
    // Every row names its node; rows that already had one keep it.
    EXPECT_NE(line.find("node=\""), std::string::npos) << line;
  }
  EXPECT_GT(lines, 0u);
  EXPECT_NE(text.find("test_annot_plain_total{node=\"reader:1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_annot_owned_total{node=\"server:3\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace fastreg
