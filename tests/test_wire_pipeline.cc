// The zero-copy wire pipeline, layer by layer:
//  * the size-precomputing encoder performs NO per-message heap
//    allocation in steady state (counted by overriding global operator
//    new -- the strongest form of the "counting buffer" instrumentation);
//  * buffer_chain resumes correctly after writev short writes, including
//    ones that end mid-block;
//  * frame_buffer::drain parses in place, reassembles frames straddling
//    receive-buffer boundaries, and still latches corrupt();
//  * a TCP deployment (a one-shard store) stays correct under fixed and
//    adaptive batch windows;
//  * the pipelined store client keeps N ops in flight and the resulting
//    histories verify.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "net/buffer_chain.h"
#include "net/framing.h"
#include "obs/metrics.h"
#include "store/tcp_store.h"
#include "store_test_util.h"

// ------------------------------------------------- allocation counting --
// Global operator new override: every heap allocation in the process is
// counted. Tests snapshot the counter around the code under test; the
// window contains only straight-line encoder calls, so a nonzero delta
// is an allocation on the encode path.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fastreg::net {
namespace {

message make_msg(std::size_t val_len = 24) {
  message m;
  m.type = msg_type::write_req;
  m.obj = 0x1234abcd;
  m.epoch = 3;
  m.attempt = 7;
  m.ts = 41;
  m.wid = 2;
  m.val = std::string(val_len, 'v');
  m.prev = "prev-value";
  m.rcounter = 9;
  m.sig = {1, 2, 3, 4};
  m.origin = reader_id(1);
  return m;
}

/// What one send of `m` encodes: a batch frame of count 1.
std::span<const message> one(const message& m) { return {&m, 1}; }

/// fastreg_net_malformed_frames_total: malformed frames in this process.
std::uint64_t malformed_frames() {
  return obs::registry::instance()
      .get_counter("fastreg_net_malformed_frames_total")
      .value();
}

// ------------------------------------------------------- exact sizing --

TEST(WireEncoder, PrecomputedSizesAreExact) {
  const auto m = make_msg();
  std::vector<std::uint8_t> out;
  EXPECT_EQ(append_batch_frame(out, server_id(0), one(m)),
            batch_frame_wire_size(one(m)));
  EXPECT_EQ(out.size(), batch_frame_wire_size(one(m)));

  const std::vector<message> batch = {make_msg(4), make_msg(100)};
  std::vector<std::uint8_t> bout;
  EXPECT_EQ(append_batch_frame(bout, server_id(0), batch),
            batch_frame_wire_size(batch));
  EXPECT_EQ(bout.size(), batch_frame_wire_size(batch));

  // The append encoders emit byte-identical frames to the owned-buffer
  // conveniences (same codec, same framing).
  EXPECT_EQ(out, encode_batch_frame(server_id(0), one(m)));
  EXPECT_EQ(bout, encode_batch_frame(server_id(0), batch));
}

TEST(WireEncoder, SteadyStateEncodePerformsNoHeapAllocation) {
  const auto m = make_msg();
  const std::vector<message> batch = {make_msg(8), make_msg(64),
                                      make_msg(200)};
  std::vector<std::uint8_t> out;
  // Warmup: the first round grows the buffer to its steady-state
  // capacity (this one MAY allocate).
  append_hello_frame(out, reader_id(0));
  append_batch_frame(out, server_id(3), one(m));
  append_batch_frame(out, server_id(3), batch);
  const std::size_t warmed_capacity = out.capacity();

  const std::uint64_t before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    out.clear();  // keeps capacity
    append_hello_frame(out, reader_id(0));
    append_batch_frame(out, server_id(3), one(m));
    append_batch_frame(out, server_id(3), batch);
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "encode path allocated on a warmed buffer";
  EXPECT_EQ(out.capacity(), warmed_capacity);
}

// -------------------------------------------------------- buffer_chain --

TEST(BufferChain, EmptyChainFillsNoIovecs) {
  buffer_chain chain;
  struct iovec iov[4];
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(chain.bytes(), 0u);
  EXPECT_EQ(chain.fill_iovec(iov, 4), 0u);
  // A tail block opened but never written into still flushes as zero
  // iovecs (the "zero-length batch flush" case: the window timer fires
  // with nothing queued).
  (void)chain.tail_for(128);
  EXPECT_EQ(chain.bytes(), 0u);
  EXPECT_EQ(chain.fill_iovec(iov, 4), 0u);
}

TEST(BufferChain, ShortWriteResumptionAcrossBlocks) {
  // Frames large enough that a handful spans several blocks; drain the
  // chain in adversarial chunk sizes (1 byte, odd primes, mid-block and
  // cross-block cuts) and require the exact original byte stream.
  buffer_chain chain;
  std::vector<std::uint8_t> expect;
  for (int i = 0; i < 9; ++i) {
    const auto m = make_msg(20'000 + static_cast<std::size_t>(i));
    append_batch_frame(chain.tail_for(batch_frame_wire_size(one(m))),
                       server_id(0), one(m));
    append_batch_frame(expect, server_id(0), one(m));
  }
  EXPECT_EQ(chain.bytes(), expect.size());

  struct iovec iov[16];
  bool saw_multi_iovec = false;
  std::vector<std::uint8_t> got;
  const std::size_t cuts[] = {1, 7, 97, 4093, 65536, 100'003};
  std::size_t cut = 0;
  while (!chain.empty()) {
    const std::size_t n = chain.fill_iovec(iov, 16);
    ASSERT_GT(n, 0u);
    if (n > 1) saw_multi_iovec = true;
    const std::size_t avail = std::accumulate(
        iov, iov + n, std::size_t{0},
        [](std::size_t a, const struct iovec& v) { return a + v.iov_len; });
    // A short "write": take fewer bytes than offered.
    const std::size_t take = std::min(avail, cuts[cut++ % 6]);
    std::size_t left = take;
    for (std::size_t k = 0; k < n && left > 0; ++k) {
      const std::size_t from_this = std::min(left, iov[k].iov_len);
      const auto* p = static_cast<const std::uint8_t*>(iov[k].iov_base);
      got.insert(got.end(), p, p + from_this);
      left -= from_this;
    }
    chain.consume(take);
  }
  EXPECT_TRUE(saw_multi_iovec) << "frames never spanned blocks";
  EXPECT_EQ(got, expect);
}

TEST(BufferChain, RecyclesBlocksAcrossFlushCycles) {
  buffer_chain chain;
  const auto m = make_msg(1000);
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int i = 0; i < 80; ++i) {  // ~80 KB: spans at least two blocks
      append_batch_frame(chain.tail_for(batch_frame_wire_size(one(m))),
                         server_id(0), one(m));
    }
    chain.consume(chain.bytes());
    EXPECT_TRUE(chain.empty());
  }
}

// ------------------------------------------------- in-place drain parse --

std::vector<frame> drain_in_chunks(const std::vector<std::uint8_t>& stream,
                                   std::size_t chunk, frame_buffer& fb) {
  std::vector<frame> got;
  for (std::size_t pos = 0; pos < stream.size(); pos += chunk) {
    const std::size_t n = std::min(chunk, stream.size() - pos);
    fb.drain(stream.data() + pos, n,
             [&](frame&& f) { got.push_back(std::move(f)); });
  }
  return got;
}

TEST(DrainParser, FramesStraddlingReceiveBufferBoundaries) {
  std::vector<std::uint8_t> stream;
  std::vector<message> sent;
  for (int i = 0; i < 7; ++i) {
    auto m = make_msg(static_cast<std::size_t>(10 + 40 * i));
    m.rcounter = static_cast<std::uint64_t>(i);
    append_batch_frame(stream, server_id(2), one(m));
    sent.push_back(std::move(m));
  }
  // Every chunking -- byte-at-a-time up through one-read-per-stream --
  // must reassemble the same frame sequence.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{64}, stream.size()}) {
    const std::uint64_t malformed0 = malformed_frames();
    frame_buffer fb;
    const auto got = drain_in_chunks(stream, chunk, fb);
    ASSERT_EQ(got.size(), sent.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].kind, frame_kind::batch);
      EXPECT_EQ(got[i].from, server_id(2));
      ASSERT_EQ(got[i].batch.size(), 1u);
      EXPECT_EQ(got[i].batch[0], sent[i]) << "chunk=" << chunk;
    }
    EXPECT_FALSE(fb.corrupt());
    EXPECT_EQ(malformed_frames() - malformed0, 0u);
  }
}

TEST(DrainParser, BatchFramesSurviveStraddling) {
  const std::vector<message> batch = {make_msg(5), make_msg(500),
                                      make_msg(50)};
  std::vector<std::uint8_t> stream;
  append_batch_frame(stream, reader_id(0), batch);
  append_batch_frame(stream, reader_id(0), batch);
  frame_buffer fb;
  const auto got = drain_in_chunks(stream, 11, fb);
  ASSERT_EQ(got.size(), 2u);
  for (const auto& f : got) {
    EXPECT_EQ(f.kind, frame_kind::batch);
    EXPECT_EQ(f.batch, batch);
  }
}

TEST(DrainParser, CorruptLengthPrefixLatchesAndKeepsEarlierFrames) {
  const auto m = make_msg();
  std::vector<std::uint8_t> stream;
  append_batch_frame(stream, server_id(1), one(m));
  const std::size_t first_frame_end = stream.size();
  // A zero length prefix: framing is unrecoverable from here.
  stream.insert(stream.end(), {0, 0, 0, 0});
  append_batch_frame(stream, server_id(1), one(m));  // unreachable garbage

  for (const std::size_t chunk :
       {std::size_t{1}, first_frame_end, stream.size()}) {
    const std::uint64_t malformed0 = malformed_frames();
    frame_buffer fb;
    const auto got = drain_in_chunks(stream, chunk, fb);
    ASSERT_EQ(got.size(), 1u) << "chunk=" << chunk;
    EXPECT_EQ(got[0].batch.size(), 1u);
    EXPECT_TRUE(fb.corrupt());
    EXPECT_GE(malformed_frames() - malformed0, 1u);
    // Latched: further bytes are discarded, no frames ever emerge.
    std::vector<std::uint8_t> more;
    append_batch_frame(more, server_id(1), one(m));
    std::size_t extra = 0;
    fb.drain(more.data(), more.size(), [&](frame&&) { ++extra; });
    EXPECT_EQ(extra, 0u);
  }
}

TEST(DrainParser, OversizedLengthPrefixLatchesViaDrain) {
  std::vector<std::uint8_t> bogus = {0xff, 0xff, 0xff, 0xff, 0x00};
  frame_buffer fb;
  std::size_t emitted = 0;
  fb.drain(bogus.data(), bogus.size(), [&](frame&&) { ++emitted; });
  EXPECT_EQ(emitted, 0u);
  EXPECT_TRUE(fb.corrupt());
}

// --------------------------------------- batch windows on a real cluster --

void run_cluster_ops(node_options nopt) {
  system_config cfg;
  cfg.servers = 5;
  cfg.t_failures = 1;
  cfg.readers = 1;
  store::tcp_store ts(store::test::one_register(cfg, "abd"), nopt);
  ts.start();
  store::test::register_client w(ts.frontend(), writer_id(0));
  store::test::register_client r(ts.frontend(), reader_id(0));
  for (int k = 0; k < 20; ++k) {
    ASSERT_TRUE(w.write("v" + std::to_string(k + 1)));
    const auto rd = r.read();
    ASSERT_TRUE(rd.has_value());
    EXPECT_EQ(rd->val, "v" + std::to_string(k + 1));
  }
  EXPECT_TRUE(ts.gather().verify().ok);
  ts.stop();
}

TEST(BatchWindow, FixedWindowClusterStaysCorrect) {
  node_options nopt;
  nopt.batch_window_us = 300;
  run_cluster_ops(nopt);
}

TEST(BatchWindow, AdaptiveWindowClusterStaysCorrect) {
  node_options nopt;
  nopt.adaptive = true;
  run_cluster_ops(nopt);
}

TEST(BatchWindow, AdaptiveCapIsTheWindowOrTheDefault) {
  // Under adaptive, batch_window_us is the cap; a zero window caps at the
  // default rather than pinning the window at 0.
  EXPECT_EQ(node_options{}.batch_window_us, 0u);
  node_options opt;
  opt.adaptive = true;
  EXPECT_EQ(opt.window_cap_us(), node_options::k_default_window_cap_us);
  EXPECT_EQ(node_options::k_default_window_cap_us, 500u);
  opt.batch_window_us = 900;
  EXPECT_EQ(opt.window_cap_us(), 900u);
}

}  // namespace
}  // namespace fastreg::net

// ----------------------------------------------- pipelined store client --

namespace fastreg::store {
namespace {

store_config pipeline_cfg() {
  store_config cfg;
  cfg.base.servers = 5;
  cfg.base.t_failures = 1;
  cfg.base.readers = 1;
  cfg.base.writers = 1;
  cfg.num_shards = 2;
  cfg.shard_protocols = {"abd"};
  return cfg;
}

TEST(Pipeline, KeepsNOpsInFlightAndHistoriesVerify) {
  net::node_options nopt;
  nopt.batch_window_us = 200;  // the throughput pairing: window + depth
  tcp_store ts(pipeline_cfg(), nopt);
  ts.start();

  const int keys = 16;
  {
    auto w = ts.open_session(writer_id(0), /*depth=*/4);
    for (int round = 0; round < 4; ++round) {
      for (int k = 0; k < keys; ++k) {
        ASSERT_TRUE(w->put("key" + std::to_string(k),
                           "v" + std::to_string(round) + "_" +
                               std::to_string(k)));
      }
    }
    ASSERT_TRUE(w->drain());
    EXPECT_EQ(w->submitted(), 4u * keys);
    EXPECT_EQ(w->take_results().size(), 4u * keys);
  }
  {
    auto r = ts.open_session(reader_id(0), /*depth=*/8);
    for (int round = 0; round < 4; ++round) {
      for (int k = 0; k < keys; ++k) {
        ASSERT_TRUE(r->get("key" + std::to_string(k)));
      }
    }
    ASSERT_TRUE(r->drain());
    const auto results = r->take_results();
    EXPECT_EQ(results.size(), 4u * keys);
    for (const auto& res : results) {
      EXPECT_FALSE(res.is_put);
      EXPECT_FALSE(res.val.empty()) << res.key;
    }
  }
  const auto hist = ts.gather();
  EXPECT_TRUE(hist.all_complete());
  const auto res = hist.verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(Pipeline, SameKeyBackToBackSerializesInsteadOfAborting) {
  tcp_store ts(pipeline_cfg());
  ts.start();
  auto w = ts.open_session(writer_id(0), /*depth=*/4);
  // Well-formedness is per key; the session must wait for the previous
  // op on the key rather than violate the precondition (or abort).
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(w->put("samekey", "v" + std::to_string(i + 1)));
  }
  ASSERT_TRUE(w->drain());
  const auto res = ts.gather().verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

}  // namespace
}  // namespace fastreg::store
