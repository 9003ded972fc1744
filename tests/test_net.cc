// TCP transport: framing robustness, then end-to-end protocol runs over
// real localhost sockets, each protocol deployed as a one-shard store.
#include <gtest/gtest.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "checker/atomicity.h"
#include "net/framing.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "sim_test_util.h"
#include "store/tcp_store.h"
#include "store_test_util.h"

namespace fastreg::net {
namespace {

using store::tcp_store;
using store::test::k_register_key;
using store::test::one_register;
using store::test::register_client;
using test::make_cfg;

/// fastreg_net_malformed_frames_total: malformed frames in this process.
std::uint64_t malformed_frames() {
  return obs::registry::instance()
      .get_counter("fastreg_net_malformed_frames_total")
      .value();
}

// ---------------------------------------------------------------- framing

TEST(Framing, HelloRoundTrip) {
  const auto bytes = encode_hello(reader_id(3));
  frame_buffer fb;
  fb.feed(bytes.data(), bytes.size());
  const auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, frame_kind::hello);
  EXPECT_EQ(f->from, reader_id(3));
  EXPECT_FALSE(fb.next().has_value());
}

TEST(Framing, MessageRoundTrip) {
  message m;
  m.type = msg_type::read_ack;
  m.obj = 0xdeadbeefcafef00dull;
  m.ts = 42;
  m.val = "value";
  m.prev = "previous";
  m.seen.insert(writer_id(0));
  m.seen.insert(reader_id(1));
  m.rcounter = 7;
  m.sig = {1, 2, 3, 4};
  const auto bytes = encode_msg_frame(server_id(2), m);
  frame_buffer fb;
  fb.feed(bytes.data(), bytes.size());
  const auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, frame_kind::msg);
  EXPECT_EQ(f->from, server_id(2));
  ASSERT_TRUE(f->msg.has_value());
  EXPECT_EQ(*f->msg, m);
}

TEST(Framing, EpochAttemptAndMigSurviveTheWire) {
  // The reconfiguration coordinate travels end to end: epoch, attempt and
  // the migration flag must round-trip through frames, including the new
  // control message types.
  for (const auto type : {msg_type::epoch_nack, msg_type::state_req,
                          msg_type::state_ack, msg_type::seed_req,
                          msg_type::seed_ack, msg_type::read_req}) {
    message m;
    m.type = type;
    m.obj = fnv1a64("moving-key");
    m.epoch = 0x1122334455667788ull;
    m.attempt = 3;
    m.mig = type != msg_type::read_req;
    m.ts = 9;
    m.wid = 2;
    m.val = "migrated";
    m.prev = "older";
    m.sig = {9, 8, 7};
    m.rcounter = 12;
    const auto bytes = encode_msg_frame(server_id(0), m);
    frame_buffer fb;
    fb.feed(bytes.data(), bytes.size());
    const auto f = fb.next();
    ASSERT_TRUE(f.has_value()) << to_string(type);
    ASSERT_TRUE(f->msg.has_value());
    EXPECT_EQ(*f->msg, m) << to_string(type);
    EXPECT_EQ(f->msg->epoch, m.epoch);
    EXPECT_EQ(f->msg->attempt, 3u);
    EXPECT_EQ(f->msg->mig, m.mig);
  }
}

TEST(Framing, ByteAtATimeDelivery) {
  message m;
  m.type = msg_type::write_req;
  m.ts = 1;
  m.val = "x";
  const auto bytes = encode_msg_frame(writer_id(0), m);
  frame_buffer fb;
  for (const std::uint8_t b : bytes) {
    fb.feed(&b, 1);
  }
  const auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->msg->val, "x");
}

TEST(Framing, MultipleFramesInOneFeed) {
  message m;
  m.type = msg_type::read_req;
  auto bytes = encode_msg_frame(reader_id(0), m);
  const auto more = encode_msg_frame(reader_id(1), m);
  bytes.insert(bytes.end(), more.begin(), more.end());
  frame_buffer fb;
  fb.feed(bytes.data(), bytes.size());
  EXPECT_TRUE(fb.next().has_value());
  EXPECT_TRUE(fb.next().has_value());
  EXPECT_FALSE(fb.next().has_value());
}

TEST(Framing, MalformedPayloadCountedAndSkipped) {
  // A well-framed but undecodable payload is skipped, later frames parse.
  std::vector<std::uint8_t> junk = {3, 0, 0, 0, 1, 0xff, 0xff};
  const auto good = encode_hello(writer_id(0));
  junk.insert(junk.end(), good.begin(), good.end());
  const std::uint64_t malformed0 = malformed_frames();
  frame_buffer fb;
  fb.feed(junk.data(), junk.size());
  const auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, frame_kind::hello);
  EXPECT_GE(malformed_frames() - malformed0, 1u);
}

TEST(Framing, BatchFrameRoundTrip) {
  std::vector<message> msgs(3);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    msgs[i].type = msg_type::read_ack;
    msgs[i].obj = 1000 + i;
    msgs[i].ts = static_cast<ts_t>(i);
    msgs[i].val = "v" + std::to_string(i);
  }
  const auto bytes = encode_batch_frame(server_id(1), msgs);
  frame_buffer fb;
  fb.feed(bytes.data(), bytes.size());
  const auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, frame_kind::batch);
  EXPECT_EQ(f->from, server_id(1));
  ASSERT_EQ(f->batch.size(), 3u);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(f->batch[i], msgs[i]);
  }
  EXPECT_FALSE(fb.next().has_value());
}

TEST(Framing, BatchIsOneFrameNotThree) {
  std::vector<message> msgs(3);
  const auto batched = encode_batch_frame(reader_id(0), msgs);
  const auto single = encode_msg_frame(reader_id(0), msgs[0]);
  // Per-message frame overhead (length, kind, sender) is paid once.
  EXPECT_LT(batched.size(), 3 * single.size());
}

TEST(Framing, MalformedBatchCountedAndSkipped) {
  // Claims 5 messages but carries none decodable.
  byte_writer w;
  encode_process_id(w, server_id(0));
  w.put_u32(5);
  w.put_u8(0xff);
  std::vector<std::uint8_t> bytes;
  const std::uint32_t len =
      static_cast<std::uint32_t>(w.bytes().size() + 1);
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  bytes.push_back(static_cast<std::uint8_t>(frame_kind::batch));
  bytes.insert(bytes.end(), w.bytes().begin(), w.bytes().end());
  const auto good = encode_hello(writer_id(0));
  bytes.insert(bytes.end(), good.begin(), good.end());
  const std::uint64_t malformed0 = malformed_frames();
  frame_buffer fb;
  fb.feed(bytes.data(), bytes.size());
  const auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, frame_kind::hello);
  EXPECT_GE(malformed_frames() - malformed0, 1u);
}

TEST(Framing, HostileBatchCountRejectedWithoutAllocating) {
  // A batch frame whose count field claims ~payload-size messages must be
  // rejected by the pre-allocation bound (reserving count * sizeof
  // (message) would be gigabytes for a hostile count).
  byte_writer w;
  encode_process_id(w, server_id(0));
  w.put_u32(0x00ffffffu);  // claims ~16M messages
  for (int i = 0; i < 64; ++i) w.put_u8(0xab);
  std::vector<std::uint8_t> bytes;
  const std::uint32_t len =
      static_cast<std::uint32_t>(w.bytes().size() + 1);
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  bytes.push_back(static_cast<std::uint8_t>(frame_kind::batch));
  bytes.insert(bytes.end(), w.bytes().begin(), w.bytes().end());
  const std::uint64_t malformed0 = malformed_frames();
  frame_buffer fb;
  fb.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_EQ(malformed_frames() - malformed0, 1u);
}

TEST(Framing, OversizedLengthLatchesCorrupt) {
  std::vector<std::uint8_t> evil = {0xff, 0xff, 0xff, 0xff, 1};
  const std::uint64_t malformed0 = malformed_frames();
  frame_buffer fb;
  fb.feed(evil.data(), evil.size());
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_EQ(malformed_frames() - malformed0, 1u);
  // An implausible length prefix means framing is lost for good: the
  // buffer latches corrupt() and the owner must reset the connection.
  EXPECT_TRUE(fb.corrupt());
  // Bytes fed after the corruption are unattributable garbage: ignored.
  const auto good = encode_hello(writer_id(0));
  fb.feed(good.data(), good.size());
  EXPECT_FALSE(fb.next().has_value());
}

TEST(Framing, ZeroLengthLatchesCorrupt) {
  std::vector<std::uint8_t> evil = {0, 0, 0, 0, 7};
  const std::uint64_t malformed0 = malformed_frames();
  frame_buffer fb;
  fb.feed(evil.data(), evil.size());
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_TRUE(fb.corrupt());
  EXPECT_EQ(malformed_frames() - malformed0, 1u);
}

TEST(Framing, IntactFramesBeforeCorruptionStillParse) {
  // Frames already framed correctly ahead of the bad length prefix are
  // delivered; only the tail after it is lost to the reset.
  const auto a = encode_hello(reader_id(1));
  const auto b = encode_msg_frame(server_id(2), message{});
  std::vector<std::uint8_t> bytes;
  bytes.insert(bytes.end(), a.begin(), a.end());
  bytes.insert(bytes.end(), b.begin(), b.end());
  bytes.insert(bytes.end(), {0xff, 0xff, 0xff, 0xff});  // hopeless prefix
  frame_buffer fb;
  fb.feed(bytes.data(), bytes.size());
  const auto f1 = fb.next();
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->kind, frame_kind::hello);
  const auto f2 = fb.next();
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->kind, frame_kind::msg);
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_TRUE(fb.corrupt());
}

// ------------------------------------------------------------- end-to-end
//
// Every TCP client is a store client: each protocol runs as a one-shard
// store, and each client drives one depth-1 session on one key.

TEST(Cluster, CorruptStreamResetsConnectionAndServerKeepsServing) {
  tcp_store ts(one_register(make_cfg(3, 1, 1), "abd"));
  ts.start();
  register_client w(ts.frontend(), writer_id(0));
  register_client r(ts.frontend(), reader_id(0));
  ASSERT_TRUE(w.write("before-garbage"));

  // A raw connection feeding an implausible length prefix: the server
  // must reset it (frame_buffer's corruption contract) rather than stall
  // or crash, and unrelated clients keep being served.
  unique_fd evil = connect_to(ts.cluster().book().server_ports[0]);
  ASSERT_TRUE(evil.valid());
  const std::uint8_t garbage[] = {0xff, 0xff, 0xff, 0xff, 0x42};
  ASSERT_EQ(::send(evil.get(), garbage, sizeof garbage, 0),
            static_cast<ssize_t>(sizeof garbage));
  // The server closes the connection: read() sees EOF (0) or a reset.
  pollfd pfd{evil.get(), POLLIN | POLLHUP, 0};
  ASSERT_GT(::poll(&pfd, 1, 5000), 0) << "server never reset the stream";
  std::uint8_t buf[16];
  EXPECT_LE(::recv(evil.get(), buf, sizeof buf, 0), 0);

  ASSERT_TRUE(w.write("after-garbage"));
  const auto res = r.read();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->val, "after-garbage");
  ts.stop();
}

TEST(Cluster, FastSwmrWriteReadOverTcp) {
  tcp_store ts(one_register(make_cfg(5, 1, 2), "fast_swmr"));
  ts.start();
  register_client w(ts.frontend(), writer_id(0));
  register_client r(ts.frontend(), reader_id(0));
  ASSERT_TRUE(w.write("over-the-wire"));
  const auto r0 = r.read();
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->val, "over-the-wire");
  EXPECT_EQ(r0->rounds, 1);
  ts.stop();
}

TEST(Cluster, AbdReadTakesTwoRounds) {
  tcp_store ts(one_register(make_cfg(3, 1, 1), "abd"));
  ts.start();
  register_client w(ts.frontend(), writer_id(0));
  register_client r(ts.frontend(), reader_id(0));
  ASSERT_TRUE(w.write("abd-value"));
  const auto r0 = r.read();
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->val, "abd-value");
  EXPECT_EQ(r0->rounds, 2);
  ts.stop();
}

TEST(Cluster, MaxminGossipsServerToServer) {
  tcp_store ts(one_register(make_cfg(5, 2, 1), "maxmin"));
  ts.start();
  register_client w(ts.frontend(), writer_id(0));
  register_client r(ts.frontend(), reader_id(0));
  ASSERT_TRUE(w.write("gossiped"));
  const auto r0 = r.read();
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->val, "gossiped");
  ts.stop();
}

TEST(Cluster, BftWithRealRsaSignatures) {
  tcp_store ts(one_register(make_cfg(8, 1, 1, 1, 1, "rsa"), "fast_bft"));
  ts.start();
  register_client w(ts.frontend(), writer_id(0));
  register_client r(ts.frontend(), reader_id(0));
  ASSERT_TRUE(w.write("rsa-signed"));
  const auto r0 = r.read();
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->val, "rsa-signed");
  ts.stop();
}

TEST(Cluster, SequencesOfOpsStayAtomic) {
  tcp_store ts(one_register(make_cfg(7, 1, 2), "fast_swmr"));
  ts.start();
  register_client w(ts.frontend(), writer_id(0));
  register_client r0(ts.frontend(), reader_id(0));
  register_client r1(ts.frontend(), reader_id(1));
  for (int k = 1; k <= 10; ++k) {
    ASSERT_TRUE(w.write("v" + std::to_string(k)));
    const auto a = r0.read();
    const auto b = r1.read();
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->val, "v" + std::to_string(k));
    EXPECT_EQ(b->val, "v" + std::to_string(k));
  }
  const auto hists = ts.gather();
  const auto& hist = hists.all().at(k_register_key);
  const auto res = checker::check_swmr_atomicity(hist);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(checker::check_fastness(hist, 1, 1).ok);
  ts.stop();
}

TEST(Cluster, ConcurrentClientsProduceAtomicHistory) {
  tcp_store ts(one_register(make_cfg(9, 1, 3), "fast_swmr"));
  ts.start();
  std::thread writer_thread([&] {
    register_client w(ts.frontend(), writer_id(0));
    for (int k = 1; k <= 15; ++k) {
      ASSERT_TRUE(w.write("v" + std::to_string(k)));
    }
  });
  std::vector<std::thread> reader_threads;
  for (std::uint32_t i = 0; i < 3; ++i) {
    reader_threads.emplace_back([&, i] {
      register_client r(ts.frontend(), reader_id(i));
      for (int k = 0; k < 10; ++k) {
        ASSERT_TRUE(r.read().has_value());
      }
    });
  }
  writer_thread.join();
  for (auto& t : reader_threads) t.join();
  const auto hists = ts.gather();
  const auto& hist = hists.all().at(k_register_key);
  EXPECT_EQ(hist.size(), 15u + 3 * 10);
  const auto res = checker::check_swmr_atomicity(hist);
  EXPECT_TRUE(res.ok) << res.error << "\n" << hist.dump();
  ts.stop();
}

TEST(Cluster, ServerStopModelsCrashToleratedByQuorum) {
  tcp_store ts(one_register(make_cfg(5, 1, 1), "fast_swmr"));
  ts.start();
  register_client w(ts.frontend(), writer_id(0));
  register_client r(ts.frontend(), reader_id(0));
  ASSERT_TRUE(w.write("before-crash"));
  ts.cluster().server(0).stop();  // one server goes dark: within t = 1
  ASSERT_TRUE(w.write("after-crash"));
  const auto r0 = r.read();
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->val, "after-crash");
  ts.stop();
}

/// Sum of every registry counter series whose name starts with `prefix`
/// (labels vary per node/reactor; the total is what the test cares about).
double counter_total(const std::string& prefix) {
  double total = 0;
  for (const auto& s : obs::snapshot()) {
    if (s.name.rfind(prefix, 0) == 0) total += s.value;
  }
  return total;
}

/// Live sum of every fastreg_net_reactor_connections series of a server
/// node (labels render as node="s1", node="s2", ...).
double server_connections() {
  double total = 0;
  for (const auto& s : obs::snapshot()) {
    if (s.name.rfind("fastreg_net_reactor_connections{node=\"s", 0) == 0) {
      total += s.value;
    }
  }
  return total;
}

TEST(Cluster, SignalStormDuringWorkloadClosesZeroConnections) {
  // An interrupted syscall is a signal, not a peer event: before the
  // EINTR-aware read/writev/accept/epoll paths, every stray signal that
  // landed in a reactor mid-read tore down a healthy connection (the
  // n <= 0 fallthrough called close_conn), and the workload survived
  // only by silently reconnecting. This drives a workload under a
  // SIGUSR1 storm aimed at the reactor threads and asserts nothing was
  // closed: zero new accepts (no reconnects) and zero stream resets.
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART: syscalls must see EINTR
  struct sigaction old_sa{};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old_sa), 0);

  // Gauge rows outlive their nodes (a destroyed node never closes its
  // connections), so count this cluster's from a baseline.
  const double conns0 = server_connections();
  tcp_store ts(one_register(make_cfg(5, 1, 2), "fast_swmr"));
  ts.start();
  register_client w(ts.frontend(), writer_id(0));
  register_client r0(ts.frontend(), reader_id(0));
  register_client r1(ts.frontend(), reader_id(1));
  // Warm-up pass: every client-server connection exists afterwards, so
  // any accept during the storm pass can only be a reconnect. An op
  // returns once a QUORUM answered: the slowest server may not have
  // accepted yet, so wait until all (W+R)*S connections are adopted.
  ASSERT_TRUE(w.write("warmup"));
  ASSERT_TRUE(r0.read().has_value());
  ASSERT_TRUE(r1.read().has_value());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_connections() - conns0 < 3 * 5) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "only " << server_connections() - conns0
        << " of 15 client connections reached the servers";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Block SIGUSR1 on this thread (and, by mask inheritance, the storm
  // thread): the kernel then delivers the process-directed signals below
  // only to threads that keep it unblocked -- the reactor threads
  // ts.start() spawned before this mask change.
  sigset_t storm_set, old_set;
  sigemptyset(&storm_set);
  sigaddset(&storm_set, SIGUSR1);
  ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &storm_set, &old_set), 0);

  const double accepts_before =
      counter_total("fastreg_net_reactor_accepts_total");
  const double resets_before =
      counter_total("fastreg_net_conn_resets_total");

  // Full-rate storm (no sleep): the sockets are nonblocking, so a signal
  // only lands "inside" read/writev during the microseconds the syscall
  // actually runs -- maximizing delivery frequency and payload size is
  // what makes the window hittable at all.
  std::atomic<bool> storming{true};
  std::thread storm([&] {
    while (storming.load(std::memory_order_relaxed)) {
      ::kill(::getpid(), SIGUSR1);
      ::sched_yield();
    }
  });
  const std::string big(16 * 1024, 'x');  // multi-read-sized frames
  for (int k = 1; k <= 100; ++k) {
    ASSERT_TRUE(w.write(big + std::to_string(k)));
    ASSERT_TRUE(r0.read().has_value());
    ASSERT_TRUE(r1.read().has_value());
  }
  storming.store(false);
  storm.join();

  EXPECT_EQ(counter_total("fastreg_net_reactor_accepts_total"),
            accepts_before)
      << "a connection was closed and re-accepted during the storm";
  EXPECT_EQ(counter_total("fastreg_net_conn_resets_total"), resets_before);

  EXPECT_TRUE(ts.gather().verify().ok);
  ts.stop();
  ASSERT_EQ(pthread_sigmask(SIG_SETMASK, &old_set, nullptr), 0);
  ASSERT_EQ(::sigaction(SIGUSR1, &old_sa, nullptr), 0);
}

TEST(Cluster, ScrapeRetriesSyscallsASignalInterrupts) {
  // tcp_store::scrape polls, sends and reads on a raw socket from the
  // calling thread. A signal landing in one of those calls is EINTR, not
  // a dead server: under a SIGUSR1 storm aimed at the scraping thread
  // alone, every scrape must still return the dump.
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART: syscalls must see EINTR
  struct sigaction old_sa{};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old_sa), 0);

  tcp_store ts(one_register(make_cfg(3, 1, 1), "abd"));
  ts.start();
  const pthread_t scraper = ::pthread_self();
  std::atomic<bool> storming{true};
  // Two senders: one alone lands a signal inside a syscall too rarely to
  // fail a scrape that gives up on EINTR in every run.
  std::vector<std::thread> storms;
  for (int s = 0; s < 2; ++s) {
    storms.emplace_back([&] {
      while (storming.load(std::memory_order_relaxed)) {
        ::pthread_kill(scraper, SIGUSR1);
        ::sched_yield();
      }
    });
  }
  int empty = 0;
  for (std::uint32_t k = 0; k < 200; ++k) {
    if (ts.scrape(k % 3).empty()) ++empty;
  }
  storming.store(false);
  for (auto& t : storms) t.join();
  ts.stop();
  ASSERT_EQ(::sigaction(SIGUSR1, &old_sa, nullptr), 0);
  EXPECT_EQ(empty, 0) << "of 200 scrapes under the storm";
}

struct ship_run {
  double ships{0};
  checker::check_result check{};
};

/// One writer and three readers, each on its own thread, run 200 ops each
/// against a one-shard maxmin store (S = 5, t = 1) whose server nodes
/// run `server_reactors` reactors. Returns how many frame batches the
/// nodes shipped between their reactors, and the history's check.
ship_run run_maxmin_with_server_reactors(std::uint32_t server_reactors) {
  cluster_options copt;
  copt.server_reactors = server_reactors;
  tcp_store ts(one_register(make_cfg(5, 1, 3), "maxmin"),
               node_options::from_env(), copt);
  const double ships0 = counter_total("fastreg_net_reactor_ships_total");
  ts.start();
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    register_client w(ts.frontend(), writer_id(0));
    for (int k = 1; k <= 200; ++k) {
      ASSERT_TRUE(w.write("v" + std::to_string(k)));
    }
  });
  for (std::uint32_t i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      register_client r(ts.frontend(), reader_id(i));
      for (int k = 0; k < 200; ++k) ASSERT_TRUE(r.read().has_value());
    });
  }
  for (auto& th : threads) th.join();
  ts.stop();
  ship_run out;
  out.ships = counter_total("fastreg_net_reactor_ships_total") - ships0;
  out.check =
      checker::check_swmr_atomicity(ts.gather().all().at(k_register_key));
  return out;
}

TEST(Cluster, MultiReactorServersShipGossipAcrossReactors) {
  // A server actor steps on whichever of its node's reactors received the
  // frame, but its connection to a peer server lives on the reactor that
  // opened it. maxmin servers gossip with each other, so with several
  // reactors per server node that gossip crosses reactors and is shipped
  // to the connection's owner (node::ship_to). With one reactor per node
  // nothing ships.
  const auto multi = run_maxmin_with_server_reactors(4);
  EXPECT_GT(multi.ships, 0.0);
  EXPECT_TRUE(multi.check.ok) << multi.check.error;
  const auto single = run_maxmin_with_server_reactors(1);
  EXPECT_EQ(single.ships, 0.0);
  EXPECT_TRUE(single.check.ok) << single.check.error;
}

TEST(Cluster, MwmrTwoWritersOverTcp) {
  tcp_store ts(one_register(make_cfg(5, 2, 2, 0, 2), "mwmr"));
  ts.start();
  register_client w0(ts.frontend(), writer_id(0));
  register_client w1(ts.frontend(), writer_id(1));
  register_client r(ts.frontend(), reader_id(0));
  ASSERT_TRUE(w0.write("from-w1"));
  ASSERT_TRUE(w1.write("from-w2"));
  const auto r0 = r.read();
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->val, "from-w2");
  EXPECT_TRUE(ts.gather().verify(store::verify_mode::mwmr_oracle).ok);
  ts.stop();
}

}  // namespace
}  // namespace fastreg::net
