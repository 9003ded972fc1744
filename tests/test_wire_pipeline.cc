// The zero-copy wire pipeline, layer by layer:
//  * the size-precomputing encoder performs NO per-message heap
//    allocation in steady state (counted by overriding global operator
//    new -- the strongest form of the "counting buffer" instrumentation);
//  * buffer_chain resumes correctly after writev short writes, including
//    ones that end mid-block;
//  * frame_buffer::drain parses in place, reassembles frames straddling
//    receive-buffer boundaries, and still latches corrupt(); in steady
//    state it decodes every frame into the one batch it keeps;
//  * node_options keeps the one flush policy's constants (flush in the
//    step that queued the frames);
//  * the pipelined store client keeps N ops in flight and the resulting
//    histories verify.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/buffer_chain.h"
#include "net/framing.h"
#include "net/node.h"
#include "obs/metrics.h"
#include "store/tcp_store.h"

// ------------------------------------------------- allocation counting --
// Global operator new override: every heap allocation in the process is
// counted. Tests snapshot the counter around the code under test; the
// window contains only straight-line encoder calls, so a nonzero delta
// is an allocation on the encode path.

namespace {
/// Largest request glibc's per-thread cache (tcache) serves: 1032 bytes.
constexpr std::size_t k_tcache_max_bytes = 1032;

std::atomic<std::uint64_t> g_alloc_count{0};
/// Allocations above k_tcache_max_bytes.
std::atomic<std::uint64_t> g_large_alloc_count{0};
/// Allocations of a whole number of messages: message vectors.
std::atomic<std::uint64_t> g_message_sized_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (n > k_tcache_max_bytes) {
    g_large_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (n != 0 && n % sizeof(fastreg::message) == 0) {
    g_message_sized_count.fetch_add(1, std::memory_order_relaxed);
  }
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

TEST(DrainParser, HelloAfterABatchCarriesNoMessages) {
  // A frame's count starts over after every frame, so a hello that
  // follows a batch frame is delivered with no messages (its kept ones
  // past the count), on both the in-place and the buffered path.
  std::vector<std::uint8_t> stream;
  append_batch_frame(stream, server_id(1),
                     std::vector<message>{make_msg(), make_msg()});
  append_hello_frame(stream, server_id(2));
  for (const std::size_t chunk : {std::size_t{1}, stream.size()}) {
    frame_buffer fb;
    std::vector<std::pair<frame_kind, std::size_t>> got;
    for (std::size_t pos = 0; pos < stream.size(); pos += chunk) {
      fb.drain(stream.data() + pos, std::min(chunk, stream.size() - pos),
               [&](const frame& f) {
                 got.emplace_back(f.kind, f.msgs().size());
               });
    }
    ASSERT_EQ(got.size(), 2u) << "chunk=" << chunk;
    EXPECT_EQ(got[0], std::make_pair(frame_kind::batch, std::size_t{2}));
    EXPECT_EQ(got[1], std::make_pair(frame_kind::hello, std::size_t{0}));
  }
}

/// Batch frames of 1 to 16 messages of `type` from reader_id(0), each
/// carrying `val` in val and prev.
std::vector<std::uint8_t> frames_of_1_to_16(msg_type type,
                                            const std::string& val) {
  std::vector<std::uint8_t> stream;
  for (std::size_t n = 1; n <= 16; ++n) {
    std::vector<message> batch(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch[i].type = type;
      batch[i].obj = 1000 + i;
      batch[i].ts = static_cast<ts_t>(n);
      batch[i].val = val;
      batch[i].prev = val;
      batch[i].origin = reader_id(0);
    }
    append_batch_frame(stream, reader_id(0), batch);
  }
  return stream;
}

/// Allocations counted over a window: all, above k_tcache_max_bytes,
/// and message-sized.
struct drain_allocs {
  std::uint64_t all{0};
  std::uint64_t large{0};
  std::uint64_t message_sized{0};
};

/// What a warmed frame_buffer allocates draining `stream` 100 times, as
/// one read and in 97-byte reads (frames straddle reads, so the buffered
/// path decodes too).
drain_allocs warmed_drain_allocs(const std::vector<std::uint8_t>& stream) {
  frame_buffer fb;
  std::size_t msgs = 0;
  const auto count = [&](const frame& f) { msgs += f.msgs().size(); };
  const auto pass = [&] {
    fb.drain(stream.data(), stream.size(), count);
    for (std::size_t pos = 0; pos < stream.size(); pos += 97) {
      const std::size_t n = std::min<std::size_t>(97, stream.size() - pos);
      fb.drain(stream.data() + pos, n, count);
    }
  };
  pass();  // warm-up: the kept batch and the partial-frame buffer grow
  const std::uint64_t all0 = g_alloc_count.load();
  const std::uint64_t large0 = g_large_alloc_count.load();
  const std::uint64_t sized0 = g_message_sized_count.load();
  for (int i = 0; i < 100; ++i) pass();
  drain_allocs d{g_alloc_count.load() - all0,
                 g_large_alloc_count.load() - large0,
                 g_message_sized_count.load() - sized0};
  EXPECT_EQ(msgs, 101u * 2 * (16 * 17 / 2));  // every message delivered
  EXPECT_FALSE(fb.corrupt());
  return d;
}

TEST(DrainParser, SteadyStateDecodeReusesItsBatch) {
  // Read requests carry no value: decoding them allocates nothing at all.
  const drain_allocs reqs =
      warmed_drain_allocs(frames_of_1_to_16(msg_type::read_req, ""));
  EXPECT_EQ(reqs.all, 0u);

  // Acks with 16-byte values outgrow the small-string buffer, but each
  // decodes over a kept message whose strings already hold that much:
  // nothing allocates either.
  const drain_allocs acks = warmed_drain_allocs(
      frames_of_1_to_16(msg_type::read_ack, std::string(16, 'v')));
  EXPECT_EQ(acks.all, 0u);

  // Stale contents: a good 8-message frame, then a frame of count 3 whose
  // third message is truncated (skipped), then a good 2-message frame.
  // The callback sees exactly the last frame's 2 messages, none of the
  // earlier frames' leftovers.
  std::vector<message> eight(8);
  for (std::size_t i = 0; i < eight.size(); ++i) {
    eight[i] = make_msg(8 + i);
    eight[i].rcounter = 100 + i;
  }
  const std::vector<message> three = {make_msg(3), make_msg(4), make_msg(5)};
  auto bad = encode_batch_frame(server_id(0), three);
  bad.pop_back();  // the third message's origin loses a byte
  const auto len = static_cast<std::uint32_t>(bad.size() - 4);
  std::memcpy(bad.data(), &len, 4);
  const std::vector<message> two = {make_msg(1), make_msg(2)};
  const std::uint64_t malformed0 = malformed_frames();
  frame_buffer fb;
  std::vector<std::vector<message>> seen;
  const auto keep = [&](const frame& f) {
    seen.emplace_back(f.msgs().begin(), f.msgs().end());
  };
  for (const auto& bytes :
       {encode_batch_frame(server_id(0), eight), bad,
        encode_batch_frame(server_id(0), two)}) {
    fb.drain(bytes.data(), bytes.size(), keep);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], eight);
  EXPECT_EQ(seen[1], two);
  EXPECT_EQ(malformed_frames() - malformed0, 1u);
  EXPECT_FALSE(fb.corrupt());
}

TEST(DrainParser, OversizedBatchIsNotKept) {
  // A batch past max_kept_batch gives its memory back after delivery, so
  // the next frame of that size allocates its batch again; one at the cap
  // is kept.
  for (const std::size_t n :
       {frame_buffer::max_kept_batch, frame_buffer::max_kept_batch + 1}) {
    const std::vector<message> batch(n);
    const auto bytes = encode_batch_frame(server_id(0), batch);
    frame_buffer fb;
    std::size_t got = 0;
    const auto count = [&](const frame& f) { got += f.msgs().size(); };
    fb.drain(bytes.data(), bytes.size(), count);
    const std::uint64_t before = g_message_sized_count.load();
    fb.drain(bytes.data(), bytes.size(), count);
    EXPECT_EQ(g_message_sized_count.load() - before,
              n > frame_buffer::max_kept_batch ? 1u : 0u)
        << n;
    EXPECT_EQ(got, 2 * n);
  }
}

// ------------------------------------------------------ one flush policy --

// Every connection flushes in the step that queued its frames; there is
// no window to configure. The benchmark's pinned-config line prints these
// three constants, so they must keep the values of that one policy.
static_assert(node_options::batch_window_us == 0);
static_assert(!node_options::adaptive);
static_assert(node_options::flush_bytes == 0);

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
  tcp_store ts(pipeline_cfg());
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
