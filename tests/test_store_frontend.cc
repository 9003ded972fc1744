// The unified pipelined store front-end (store/async_client.h): the
// same session surface drives the deterministic simulator and the real
// TCP cluster, so one scripted driver must produce verifier-clean,
// shape-identical histories on both. Also covered: the non-blocking
// admission statuses (window_full / key_busy / failed) and their
// registry counters on both transports, TCP admission coalescing into
// one batch frame per server, the one flush policy's wire shape (a
// connecting connection's hello and first frame share a writev, a
// paused one holds its frames until the heal flushes them, a blackholed
// server drops its replies while the quorum serves), a session op queued
// behind a key a
// timed-out submit_and_drain abandoned, backpressure against a paused
// (slow) server fleet, connection churn while a pipeline is in flight,
// and a multi-reactor hub+server run whose data races -- if any -- are
// TSan's to find.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/cluster.h"
#include "net/node.h"
#include "obs/metrics.h"
#include "store/async_client.h"
#include "store/sim_store.h"
#include "store/tcp_store.h"
#include "store_test_util.h"

namespace fastreg::store {
namespace {

using namespace std::chrono_literals;

store_config frontend_cfg(std::uint32_t S, std::uint32_t t,
                          std::uint32_t R) {
  store_config cfg;
  cfg.base.servers = S;
  cfg.base.t_failures = t;
  cfg.base.readers = R;
  cfg.base.writers = 1;
  cfg.num_shards = 2;
  cfg.shard_protocols = {"abd"};
  return cfg;
}

std::string script_key(int n) { return "k" + std::to_string(n % 4); }

/// The shared scripted driver: one writer and two readers interleave 30
/// blocking ops each through pipelined sessions (depth 3), then drain.
/// Works against ANY store_frontend -- that is the point of the test.
void run_script(store_frontend& fe) {
  auto w = fe.open_session(writer_id(0), /*depth=*/3);
  auto r0 = fe.open_session(reader_id(0), /*depth=*/3);
  auto r1 = fe.open_session(reader_id(1), /*depth=*/3);
  // Writes land first so no read ever targets a never-written key.
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(w->put(script_key(k), "seed" + std::to_string(k)));
  }
  ASSERT_TRUE(w->drain());
  for (int n = 0; n < 30; ++n) {
    ASSERT_TRUE(w->put(script_key(n), "v" + std::to_string(n)));
    ASSERT_TRUE(r0->get(script_key(n + 1)));
    ASSERT_TRUE(r1->get(script_key(n + 2)));
  }
  ASSERT_TRUE(w->drain());
  ASSERT_TRUE(r0->drain());
  ASSERT_TRUE(r1->drain());
  EXPECT_EQ(w->submitted(), 34u);
  EXPECT_EQ(r0->submitted(), 30u);
  EXPECT_EQ(r1->submitted(), 30u);
  EXPECT_EQ(w->in_flight(), 0u);
}

TEST(StoreFrontend, SameScriptOnSimAndTcpVerifierIdenticalShape) {
  const auto cfg = frontend_cfg(5, 1, 2);

  sim_store s(cfg);
  rng r(7);
  sim_frontend sim_fe(s, r);
  run_script(sim_fe);
  const auto sim_hist = sim_fe.gather();

  tcp_store ts(cfg);
  ts.start();
  run_script(ts.frontend());
  const auto tcp_hist = ts.gather();
  ts.stop();

  for (const auto* hist : {&sim_hist, &tcp_hist}) {
    EXPECT_TRUE(hist->all_complete());
    const auto res = hist->verify();
    EXPECT_TRUE(res.ok) << res.error;
  }
  // Identical shape: same keys, same per-key op count, same read/write
  // split. (Timestamps and read values legitimately differ: virtual
  // time and the sim's schedule vs wall clock and real concurrency.)
  EXPECT_EQ(sim_hist.total_ops(), tcp_hist.total_ops());
  ASSERT_EQ(sim_hist.key_count(), tcp_hist.key_count());
  for (const auto& [key, h] : sim_hist.all()) {
    ASSERT_TRUE(tcp_hist.all().contains(key)) << key;
    const auto& th = tcp_hist.all().at(key);
    EXPECT_EQ(h.ops().size(), th.ops().size()) << key;
    const auto writes = [](const checker::history& hh) {
      std::size_t n = 0;
      for (const auto& op : hh.ops()) n += op.is_write ? 1 : 0;
      return n;
    };
    EXPECT_EQ(writes(h), writes(th)) << key;
  }
}

double admission_delta(const std::vector<obs::sample>& rows,
                       const char* result) {
  return obs::series_sum(rows, "fastreg_store_admission_total",
                         "result=\"" + std::string(result) + "\"");
}

/// Pause-faults (or heals) every server of the deployment.
void fault_servers(tcp_store& ts, net::conn_fault f) {
  for (std::uint32_t i = 0; i < ts.config().base.S(); ++i) {
    ts.cluster().server(i).set_fault_all(f);
  }
}

/// The admission script both transports must answer identically: a
/// window of 2, a busy key, a full window, then a drained, free window.
/// `settle` runs once the window is full (TCP heals its paused servers
/// there so the drain can complete).
template <typename Settle>
void run_admission_script(store_frontend& fe, Settle settle) {
  obs::interval_scrape scrape;

  auto w = fe.open_session(writer_id(0), /*depth=*/2);
  EXPECT_EQ(w->try_put("k0", "a"), submit_status::submitted);
  // Same (client, key) already admitted: per-object well-formedness.
  EXPECT_EQ(w->try_put("k0", "b"), submit_status::key_busy);
  EXPECT_EQ(w->try_put("k1", "c"), submit_status::submitted);
  // Window of 2 is full, even for a fresh key.
  EXPECT_EQ(w->try_put("k2", "d"), submit_status::window_full);
  EXPECT_EQ(w->in_flight(), 2u);
  settle();

  ASSERT_TRUE(w->drain());
  EXPECT_EQ(w->in_flight(), 0u);
  // The window and the keys are free again.
  EXPECT_EQ(w->try_put("k0", "e"), submit_status::submitted);
  ASSERT_TRUE(w->drain());
  EXPECT_EQ(w->take_results().size(), 3u);

  const auto delta = scrape.take();
  EXPECT_GE(admission_delta(delta, "submitted"), 3.0);
  EXPECT_GE(admission_delta(delta, "key_busy"), 1.0);
  EXPECT_GE(admission_delta(delta, "window_full"), 1.0);

  const auto res = fe.gather().verify();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(StoreFrontend, SimAdmissionStatusesAndCounters) {
  const auto cfg = frontend_cfg(5, 1, 1);
  sim_store s(cfg);
  rng r(11);
  sim_frontend fe(s, r);
  run_admission_script(fe, [] {});
}

TEST(StoreFrontend, TcpAdmissionStatusesAndCounters) {
  // Every server is paused while the window fills, so no completion can
  // free a slot or a key early and the statuses are exact. The blocking
  // put connects the writer to every server before the pause.
  const auto cfg = frontend_cfg(3, 1, 1);
  tcp_store ts(cfg);
  ts.start();
  auto& fe = ts.frontend();
  ASSERT_TRUE(test::put_one(fe, 0, "k0", "seed"));
  fault_servers(ts, net::conn_fault::pause);
  run_admission_script(fe, [&] { fault_servers(ts, net::conn_fault::none); });
  ts.stop();
}

TEST(StoreFrontend, TcpQueuedAdmissionsLeaveAsOneBatchFramePerServer) {
  // Admission never waits for the reactor. Ops admitted while the hub's
  // reactor is held up queue in the session; the next step begins them
  // all and sends ONE batch frame per server, not one frame per op, and
  // the reactor flushes each frame with its own writev in that step.
  // fast_swmr reads take one round, so those are the hub's only frames.
  auto cfg = frontend_cfg(5, 1, 1);
  cfg.shard_protocols = {"fast_swmr"};
  net::cluster_options copt;
  copt.client_hub = true;
  tcp_store ts(cfg, net::node_options{}, copt);
  ts.start();
  auto& fe = ts.frontend();
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(test::put_one(fe, 0, "k" + std::to_string(k), "seed"));
  }
  // Connects the reader to every server.
  ASSERT_TRUE(test::get_one(fe, 0, "k0").has_value());

  net::node& hub = ts.cluster().client_node(reader_id(0));
  const std::size_t actor = ts.cluster().client_actor(reader_id(0));
  auto se = ts.open_session(reader_id(0), /*depth=*/8);
  std::promise<void> held;
  std::promise<void> release;
  std::thread holder([&] {
    EXPECT_TRUE(hub.run_on_reactor(actor, [&](automaton&, netout&) {
      held.set_value();
      release.get_future().wait();
    }));
  });
  held.get_future().wait();
  obs::interval_scrape scrape;
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(se->try_get("k" + std::to_string(k)),
              submit_status::submitted);
  }
  release.set_value();
  holder.join();
  ASSERT_TRUE(se->drain(10s));
  EXPECT_EQ(se->take_results().size(), 8u);

  const auto rows = scrape.take();
  const std::string hub_label = "node=\"" + to_string(hub.self()) + "\"";
  EXPECT_EQ(obs::series_sum(rows, "fastreg_net_frames_out_total", hub_label),
            5.0)
      << "8 queued gets must leave as one batch frame per server";
  EXPECT_EQ(obs::series_sum(rows, "fastreg_net_writev_calls_total", hub_label),
            5.0)
      << "each frame must leave in one writev, in the step that queued it";
  const auto res = ts.gather().verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

/// Waits (up to 5s) until `n` has no queued outbound bytes, so every
/// writev its last steps owed has happened.
bool backlog_drains(const net::node& n) {
  const std::string label = "node=\"" + to_string(n.self()) + "\"";
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (obs::series_sum(obs::snapshot(), "fastreg_net_backlog_bytes",
                        label) == 0.0) {
      return true;
    }
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

TEST(StoreFrontend, TcpFramesQueuedWhileConnectingLeaveWithTheHello) {
  // The reader's first get opens its connections: each one's hello and
  // batch frame queue while it connects and leave together, in the one
  // writev of the step that finds the connection writable.
  auto cfg = frontend_cfg(5, 1, 1);
  cfg.shard_protocols = {"fast_swmr"};
  tcp_store ts(cfg);
  ts.start();
  auto& fe = ts.frontend();
  ASSERT_TRUE(test::put_one(fe, 0, "k0", "seed"));
  net::node& hub = ts.cluster().client_node(reader_id(0));
  ASSERT_TRUE(backlog_drains(hub));

  obs::interval_scrape scrape;
  const auto got = test::get_one(fe, 0, "k0");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->val, "seed");
  ASSERT_TRUE(backlog_drains(hub));

  const auto rows = scrape.take();
  const std::string hub_label = "node=\"" + to_string(hub.self()) + "\"";
  EXPECT_EQ(obs::series_sum(rows, "fastreg_net_frames_out_total", hub_label),
            10.0)
      << "one hello and one batch frame per server";
  EXPECT_EQ(obs::series_sum(rows, "fastreg_net_writev_calls_total", hub_label),
            5.0)
      << "a connection's hello and first frame must leave in one writev";
  const auto res = ts.gather().verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(StoreFrontend, TcpPausedHubHoldsFramesUntilHealFlushesThem) {
  // A paused connection queues its frames but writes nothing; healing
  // the pause flushes each held connection with one writev.
  auto cfg = frontend_cfg(5, 1, 1);
  cfg.shard_protocols = {"fast_swmr"};
  tcp_store ts(cfg);
  ts.start();
  auto& fe = ts.frontend();
  ASSERT_TRUE(test::put_one(fe, 0, "k0", "seed"));
  // Connects the reader to every server.
  ASSERT_TRUE(test::get_one(fe, 0, "k0").has_value());
  net::node& hub = ts.cluster().client_node(reader_id(0));
  ASSERT_TRUE(backlog_drains(hub));
  const std::string hub_label = "node=\"" + to_string(hub.self()) + "\"";

  obs::interval_scrape scrape;
  hub.set_fault_all(net::conn_fault::pause);
  auto se = ts.open_session(reader_id(0), /*depth=*/1);
  EXPECT_EQ(se->try_get("k0"), submit_status::submitted);
  EXPECT_FALSE(se->drain(100ms));
  const auto held = scrape.take();
  EXPECT_EQ(obs::series_sum(held, "fastreg_net_frames_out_total", hub_label),
            5.0);
  EXPECT_EQ(obs::series_sum(held, "fastreg_net_writev_calls_total", hub_label),
            0.0)
      << "a paused connection must hold its bytes";
  EXPECT_GT(obs::series_sum(held, "fastreg_net_backlog_bytes", hub_label),
            0.0);

  hub.set_fault_all(net::conn_fault::none);
  ASSERT_TRUE(se->drain(10s));
  ASSERT_EQ(se->take_results().size(), 1u);
  ASSERT_TRUE(backlog_drains(hub));
  const auto healed = scrape.take();
  EXPECT_EQ(
      obs::series_sum(healed, "fastreg_net_frames_out_total", hub_label), 0.0);
  EXPECT_EQ(
      obs::series_sum(healed, "fastreg_net_writev_calls_total", hub_label),
      5.0)
      << "the heal must flush each held connection with one writev";
  const auto res = ts.gather().verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(StoreFrontend, TcpBlackholedServerDropsFramesWhileQuorumServes) {
  // A blackholed server reads and discards its requests and sends no
  // reply: no frame queued, no writev. The other S - t servers complete
  // the reads. Healing resets its connections and it serves again.
  auto cfg = frontend_cfg(5, 1, 1);
  cfg.shard_protocols = {"fast_swmr"};
  tcp_store ts(cfg);
  ts.start();
  auto& fe = ts.frontend();
  ASSERT_TRUE(test::put_one(fe, 0, "k0", "seed"));
  ASSERT_TRUE(test::get_one(fe, 0, "k0").has_value());
  net::node& dark = ts.cluster().server(4);
  ASSERT_TRUE(backlog_drains(dark));
  const std::string dark_label = "node=\"" + to_string(dark.self()) + "\"";

  dark.set_fault_all(net::conn_fault::blackhole);
  obs::interval_scrape scrape;
  for (int k = 0; k < 8; ++k) {
    const auto got = test::get_one(fe, 0, "k0");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->val, "seed");
  }
  const auto dropped = scrape.take();
  for (const char* series :
       {"fastreg_net_frames_in_total", "fastreg_net_frames_out_total",
        "fastreg_net_writev_calls_total", "fastreg_net_backlog_bytes"}) {
    EXPECT_EQ(obs::series_sum(dropped, series, dark_label), 0.0) << series;
  }

  dark.set_fault_all(net::conn_fault::none);
  EXPECT_GE(obs::series_sum(scrape.take(), "fastreg_net_conn_resets_total",
                            dark_label),
            1.0)
      << "healing a blackhole must reset its connections";
  // The client finds its old connection reset and reconnects on a later
  // send; within a few reads server 4 answers again.
  double replies = 0;
  for (int k = 0; k < 50 && replies == 0; ++k) {
    ASSERT_TRUE(test::get_one(fe, 0, "k0").has_value());
    ASSERT_TRUE(backlog_drains(dark));
    replies += obs::series_sum(scrape.take(), "fastreg_net_frames_out_total",
                               dark_label);
  }
  EXPECT_GT(replies, 0.0) << "a healed server must serve again";
  const auto hist = ts.gather();
  EXPECT_TRUE(hist.all_complete());
  const auto res = hist.verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(StoreFrontend, TcpSessionOpWaitsForAbandonedKey) {
  // A submit_and_drain get that times out against a paused fleet closes
  // its session and leaves its op pending on the client. A later session
  // get on the same key must queue behind it -- not abort on begin_get's
  // precondition, not report key_busy -- and complete once the servers
  // heal.
  const auto cfg = frontend_cfg(3, 1, 1);
  tcp_store ts(cfg);
  ts.start();
  auto& fe = ts.frontend();
  ASSERT_TRUE(test::put_one(fe, 0, "k0", "seed"));
  // Connects the reader to every server.
  ASSERT_TRUE(test::get_one(fe, 0, "k0").has_value());

  fault_servers(ts, net::conn_fault::pause);
  EXPECT_FALSE(test::get_one(fe, 0, "k0", 50ms).has_value());
  auto se = ts.open_session(reader_id(0), /*depth=*/2);
  ASSERT_TRUE(se->get("k0"));
  EXPECT_FALSE(se->drain(100ms));
  EXPECT_EQ(se->in_flight(), 1u);

  fault_servers(ts, net::conn_fault::none);
  ASSERT_TRUE(se->drain(10s));
  // Only the session's own op is reported; the abandoned one's late
  // completion closes the timed-out helper call's log entry.
  const auto results = se->take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results.front().val, "seed");
  const auto hist = ts.gather();
  EXPECT_TRUE(hist.all_complete());
  const auto res = hist.verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(StoreFrontend, TcpAdmissionFailsOnStoppedClientNode) {
  const auto cfg = frontend_cfg(3, 1, 1);
  tcp_store ts(cfg);
  ts.start();
  auto& fe = ts.frontend();
  ASSERT_TRUE(test::put_one(fe, 0, "k0", "seed"));
  ASSERT_TRUE(test::get_one(fe, 0, "k0").has_value());

  obs::interval_scrape scrape;
  auto se = ts.open_session(reader_id(0), /*depth=*/2);
  // Paused servers keep k0 in flight across the stop below.
  fault_servers(ts, net::conn_fault::pause);
  EXPECT_EQ(se->try_get("k0"), submit_status::submitted);
  ts.cluster().client_node(reader_id(0)).stop();
  EXPECT_EQ(se->try_get("k1"), submit_status::failed);
  EXPECT_FALSE(se->get("k1", 100ms));
  EXPECT_EQ(se->submitted(), 1u);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(se->drain(100ms));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
  EXPECT_EQ(se->in_flight(), 1u);
  EXPECT_GE(admission_delta(scrape.take(), "failed"), 2.0);
  ts.stop();
}

TEST(StoreFrontend, TcpBackpressureAgainstPausedServers) {
  // Pause-fault EVERY server: requests keep leaving the client (kernel
  // and window buffers absorb them) but no completion can arrive, so
  // the session's window fills and admission pushes back instead of
  // buffering unboundedly. Healing releases the queued bytes and the
  // pipeline drains clean.
  const auto cfg = frontend_cfg(3, 1, 1);
  tcp_store ts(cfg);
  ts.start();
  auto& fe = ts.frontend();
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(test::put_one(fe, 0, "k" + std::to_string(k), "seed"));
  }
  // Warm the reader's connections BEFORE the pause so the submits below
  // test backpressure, not connect-while-paused.
  ASSERT_TRUE(test::get_one(fe, 0, "k0").has_value());

  auto se = ts.open_session(reader_id(0), /*depth=*/2);
  fault_servers(ts, net::conn_fault::pause);
  EXPECT_EQ(se->try_get("k0"), submit_status::submitted);
  EXPECT_EQ(se->try_get("k1"), submit_status::submitted);
  EXPECT_EQ(se->try_get("k2"), submit_status::window_full);
  EXPECT_FALSE(se->drain(100ms));
  EXPECT_EQ(se->in_flight(), 2u);

  fault_servers(ts, net::conn_fault::none);
  ASSERT_TRUE(se->drain(10s));
  EXPECT_EQ(se->take_results().size(), 2u);
  const auto res = ts.gather().verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(StoreFrontend, TcpConnectionChurnMidPipeline) {
  // Reset every connection of one server (within the failure budget)
  // while both sessions hold full windows: in-flight ops must complete
  // from the surviving quorum, later sends must transparently
  // reconnect, and the whole history must still verify.
  const auto cfg = frontend_cfg(5, 1, 1);
  tcp_store ts(cfg);
  ts.start();
  auto& fe = ts.frontend();
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(test::put_one(fe, 0, script_key(k), "seed"));
  }

  auto w = ts.open_session(writer_id(0), /*depth=*/4);
  auto r = ts.open_session(reader_id(0), /*depth=*/4);
  for (int k = 0; k < 4; ++k) {
    ASSERT_EQ(w->try_put(script_key(k), "mid" + std::to_string(k)),
              submit_status::submitted);
    ASSERT_EQ(r->try_get(script_key(k)), submit_status::submitted);
  }
  ts.cluster().server(4).reset_all_conns();
  for (int n = 0; n < 20; ++n) {
    ASSERT_TRUE(w->put(script_key(n), "post" + std::to_string(n)));
    ASSERT_TRUE(r->get(script_key(n + 1)));
  }
  ASSERT_TRUE(w->drain());
  ASSERT_TRUE(r->drain());
  EXPECT_EQ(w->take_results().size(), 24u);
  EXPECT_EQ(r->take_results().size(), 24u);

  const auto hist = ts.gather();
  EXPECT_TRUE(hist.all_complete());
  const auto res = hist.verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(StoreFrontend, MultiReactorHubAndServersConcurrentSessions) {
  // The TSan target: 2-reactor servers, a shared 2-reactor hub node
  // carrying every client, and five driver threads running pipelined
  // sessions concurrently -- cross-reactor frame shipping, the reactor
  // pool's accept dealing, and the shared op log all under real
  // parallelism.
  const auto cfg = frontend_cfg(3, 1, 4);
  net::cluster_options copt;
  copt.server_reactors = 2;
  copt.client_hub = true;
  copt.hub_reactors = 2;
  tcp_store ts(cfg, net::node_options{}, copt);
  ts.start();
  auto& fe = ts.frontend();
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(test::put_one(fe, 0, script_key(k), "seed"));
  }

  std::thread writer([&] {
    auto w = ts.open_session(writer_id(0), /*depth=*/4);
    for (int n = 0; n < 40; ++n) {
      EXPECT_TRUE(w->put(script_key(n), "v" + std::to_string(n)));
    }
    EXPECT_TRUE(w->drain());
  });
  std::vector<std::thread> readers;
  for (std::uint32_t i = 0; i < 4; ++i) {
    readers.emplace_back([&, i] {
      auto se = ts.open_session(reader_id(i), /*depth=*/4);
      for (int n = 0; n < 40; ++n) {
        EXPECT_TRUE(se->get(script_key(n + static_cast<int>(i))));
      }
      EXPECT_TRUE(se->drain());
    });
  }
  writer.join();
  for (auto& th : readers) th.join();

  const auto hist = ts.gather();
  EXPECT_TRUE(hist.all_complete());
  const auto res = hist.verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

}  // namespace
}  // namespace fastreg::store
