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
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "checker/atomicity.h"
#include "common/server_set.h"
#include "net/framing.h"
#include "net/node.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "registers/registry.h"
#include "sim/world.h"
#include "sim_test_util.h"
#include "store/batching.h"
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

/// fastreg_net_corrupt_streams_total: connections this process reset
/// because their byte stream could not be framed.
std::uint64_t corrupt_streams() {
  return obs::registry::instance()
      .get_counter("fastreg_net_corrupt_streams_total")
      .value();
}

/// The frame one send of `m` puts on the wire: a batch frame of count 1.
std::vector<std::uint8_t> one_message_frame(const process_id& from,
                                            const message& m) {
  return encode_batch_frame(from, std::span<const message>(&m, 1));
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
  const auto bytes = one_message_frame(server_id(2), m);
  frame_buffer fb;
  fb.feed(bytes.data(), bytes.size());
  const auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, frame_kind::batch);
  EXPECT_EQ(f->from, server_id(2));
  ASSERT_EQ(f->batch.size(), 1u);
  EXPECT_EQ(f->batch[0], m);
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
    const auto bytes = one_message_frame(server_id(0), m);
    frame_buffer fb;
    fb.feed(bytes.data(), bytes.size());
    const auto f = fb.next();
    ASSERT_TRUE(f.has_value()) << to_string(type);
    ASSERT_EQ(f->batch.size(), 1u);
    EXPECT_EQ(f->batch[0], m) << to_string(type);
    EXPECT_EQ(f->batch[0].epoch, m.epoch);
    EXPECT_EQ(f->batch[0].attempt, 3u);
    EXPECT_EQ(f->batch[0].mig, m.mig);
  }
}

TEST(Framing, ByteAtATimeDelivery) {
  message m;
  m.type = msg_type::write_req;
  m.ts = 1;
  m.val = "x";
  const auto bytes = one_message_frame(writer_id(0), m);
  frame_buffer fb;
  for (const std::uint8_t b : bytes) {
    fb.feed(&b, 1);
  }
  const auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->batch.size(), 1u);
  EXPECT_EQ(f->batch[0].val, "x");
}

TEST(Framing, MultipleFramesInOneFeed) {
  message m;
  m.type = msg_type::read_req;
  auto bytes = one_message_frame(reader_id(0), m);
  const auto more = one_message_frame(reader_id(1), m);
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
  const auto single = one_message_frame(reader_id(0), msgs[0]);
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
  const auto b = one_message_frame(server_id(2), message{});
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
  EXPECT_EQ(f2->kind, frame_kind::batch);
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_TRUE(fb.corrupt());
}

/// Appends `extra` zero bytes to a frame's payload and grows its length
/// prefix to cover them: a well-framed payload with trailing bytes.
void pad_payload(std::vector<std::uint8_t>& bytes, std::size_t extra) {
  bytes.insert(bytes.end(), extra, 0);
  const auto len = static_cast<std::uint32_t>(bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  }
}

/// Feeds `bytes` through drain() and returns the frames it emitted.
std::vector<frame> drain_all(frame_buffer& fb,
                             const std::vector<std::uint8_t>& bytes) {
  std::vector<frame> got;
  fb.drain(bytes.data(), bytes.size(),
           [&](frame&& f) { got.push_back(std::move(f)); });
  return got;
}

TEST(Framing, SpanWiderThanU16IsMalformedNotTruncated) {
  message m;
  m.type = msg_type::read_req;
  m.trace = 5;
  m.span = 0xbeef;
  auto bytes = one_message_frame(reader_id(0), m);
  // The span's u32 sits after the frame header (length, kind, sender,
  // count) and the message's type, obj, epoch, attempt, mig and trace.
  const std::size_t at =
      4 + 1 + process_id_wire_size() + 4 + 1 + 8 + 8 + 4 + 1 + 8;
  ASSERT_EQ(bytes[at], 0xef);
  ASSERT_EQ(bytes[at + 1], 0xbe);
  ASSERT_EQ(bytes[at + 2], 0);
  bytes[at + 2] = 1;  // span 0x1beef: does not fit the in-memory u16
  const auto good = one_message_frame(reader_id(1), m);
  bytes.insert(bytes.end(), good.begin(), good.end());
  const std::uint64_t malformed0 = malformed_frames();
  frame_buffer fb;
  const auto got = drain_all(fb, bytes);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, reader_id(1));
  ASSERT_EQ(got[0].batch.size(), 1u);
  EXPECT_EQ(got[0].batch[0].span, 0xbeef);
  EXPECT_EQ(malformed_frames() - malformed0, 1u);
  EXPECT_FALSE(fb.corrupt());
}

TEST(Framing, HelloWithTrailingBytesIsMalformed) {
  auto bytes = encode_hello(reader_id(3));
  pad_payload(bytes, 2);
  const auto good = encode_hello(reader_id(4));
  bytes.insert(bytes.end(), good.begin(), good.end());
  const std::uint64_t malformed0 = malformed_frames();
  frame_buffer fb;
  const auto got = drain_all(fb, bytes);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, frame_kind::hello);
  EXPECT_EQ(got[0].from, reader_id(4));
  EXPECT_EQ(malformed_frames() - malformed0, 1u);
  EXPECT_FALSE(fb.corrupt());
}

TEST(Framing, BatchWithTrailingBytesIsMalformed) {
  const std::vector<message> msgs(2);
  auto bytes = encode_batch_frame(server_id(0), msgs);
  pad_payload(bytes, 3);
  const auto good = encode_batch_frame(server_id(1), msgs);
  bytes.insert(bytes.end(), good.begin(), good.end());
  const std::uint64_t malformed0 = malformed_frames();
  frame_buffer fb;
  const auto got = drain_all(fb, bytes);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, server_id(1));
  EXPECT_EQ(got[0].batch.size(), 2u);
  EXPECT_EQ(malformed_frames() - malformed0, 1u);
  EXPECT_FALSE(fb.corrupt());
}

TEST(Framing, RetiredMsgKindIsSkippedAndTheStreamContinues) {
  // Kind 1 once carried a lone message; every send is a batch frame now.
  message m;
  m.type = msg_type::read_req;
  auto bytes = one_message_frame(reader_id(0), m);
  bytes[4] = 1;
  const auto good = one_message_frame(reader_id(1), m);
  bytes.insert(bytes.end(), good.begin(), good.end());
  const std::uint64_t malformed0 = malformed_frames();
  frame_buffer fb;
  const auto got = drain_all(fb, bytes);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, frame_kind::batch);
  EXPECT_EQ(got[0].from, reader_id(1));
  EXPECT_EQ(malformed_frames() - malformed0, 1u);
  EXPECT_FALSE(fb.corrupt());
}

TEST(Framing, RetiredStatsMsgTypesAreMalformedAndTheStreamContinues) {
  // Types 17 and 18 once carried a metrics scrape; the registry is read
  // in-process now, so a batch carrying either is malformed.
  message m;
  m.type = msg_type::read_req;
  // The first message's type byte follows the frame header (length,
  // kind, sender, count).
  const std::size_t at = 4 + 1 + process_id_wire_size() + 4;
  std::vector<std::uint8_t> bytes;
  for (const std::uint8_t retired : {17, 18}) {
    auto bad = one_message_frame(reader_id(0), m);
    ASSERT_EQ(bad[at], static_cast<std::uint8_t>(msg_type::read_req));
    bad[at] = retired;
    bytes.insert(bytes.end(), bad.begin(), bad.end());
  }
  const auto good = one_message_frame(reader_id(1), m);
  bytes.insert(bytes.end(), good.begin(), good.end());
  const std::uint64_t malformed0 = malformed_frames();
  frame_buffer fb;
  const auto got = drain_all(fb, bytes);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, reader_id(1));
  ASSERT_EQ(got[0].batch.size(), 1u);
  EXPECT_EQ(got[0].batch[0].type, msg_type::read_req);
  EXPECT_EQ(malformed_frames() - malformed0, 2u);
  EXPECT_FALSE(fb.corrupt());
}

TEST(Framing, OnlyTheWireKindsDecode) {
  // decode_message accepts exactly the codes 1..k_max_msg_type; every
  // other type byte, the retired 17 and 18 among them, is malformed.
  message m;
  m.type = msg_type::read_req;
  m.val = "v";
  byte_writer w;
  encode_message(w, m);
  auto bytes = w.take();
  for (unsigned c = 0; c <= 255; ++c) {
    bytes[0] = static_cast<std::uint8_t>(c);
    byte_reader r(bytes);
    message got;
    const bool ok = decode_message(r, got);
    ASSERT_EQ(ok, c >= 1 && c <= k_max_msg_type) << c;
    if (ok) {
      EXPECT_EQ(static_cast<unsigned>(got.type), c);
      EXPECT_EQ(got.val, "v");
    }
  }
}

// ----------------------------------------------------- corruption sweep

/// Two messages that between them set every wire field.
std::vector<message> golden_batch() {
  std::vector<message> msgs(2);
  msgs[0].type = msg_type::read_req;
  msgs[0].obj = 0x0102030405060708ull;
  msgs[0].epoch = 3;
  msgs[0].attempt = 2;
  msgs[0].mig = true;
  msgs[0].trace = 0x2a;
  msgs[0].span = 1;
  msgs[0].rcounter = 9;
  msgs[1].type = msg_type::read_ack;
  msgs[1].ts = 5;
  msgs[1].wid = 1;
  msgs[1].val = "xy";
  msgs[1].prev = "p";
  msgs[1].seen.insert(reader_id(0));
  msgs[1].seen.insert(writer_id(0));
  msgs[1].sig = {0xde, 0xad};
  msgs[1].origin = reader_id(1);
  return msgs;
}

/// The wire format is frozen: encode_batch_frame(server_id(1),
/// golden_batch()).
constexpr const char* k_golden_batch_hex =
    "ad00000002020100000002000000030807060504030201030000000000000002"
    "000000012a000000000000000100000000000000000000000000000000000000"
    "0000000000000000000000000900000000000000000000000200000000040000"
    "0000000000000000000000000000000000000000000000000000000000000005"
    "0000000000000001000000020000007879010000007003000000000000000000"
    "00000000000002000000dead0101000000";

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char k_digits[] = "0123456789abcdef";
  std::string out;
  for (const auto b : bytes) {
    out += k_digits[b >> 4];
    out += k_digits[b & 0xf];
  }
  return out;
}

/// What one decoding path made of a byte string.
struct decoded {
  std::vector<frame> frames;
  bool corrupt{false};
};

void expect_same(const decoded& a, const decoded& b, const std::string& what) {
  EXPECT_EQ(a.corrupt, b.corrupt) << what;
  ASSERT_EQ(a.frames.size(), b.frames.size()) << what;
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].kind, b.frames[i].kind) << what;
    EXPECT_EQ(a.frames[i].from, b.frames[i].from) << what;
    EXPECT_EQ(a.frames[i].batch, b.frames[i].batch) << what;
  }
}

/// Runs `chunks` through feed()+next() on one buffer and through drain()
/// on another, one chunk per call, and checks the two agree.
decoded decode_both_ways(
    const std::vector<std::vector<std::uint8_t>>& chunks,
    const std::string& what) {
  decoded fed;
  decoded drained;
  frame_buffer a;
  frame_buffer b;
  for (const auto& c : chunks) {
    a.feed(c.data(), c.size());
    while (auto f = a.next()) fed.frames.push_back(std::move(*f));
    b.drain(c.data(), c.size(),
            [&](frame&& f) { drained.frames.push_back(std::move(f)); });
  }
  fed.corrupt = a.corrupt();
  drained.corrupt = b.corrupt();
  expect_same(fed, drained, what);
  return fed;
}

TEST(Framing, EveryTruncationAndBitFlipOfAGoldenBatchDecodesAlike) {
  const auto golden = encode_batch_frame(server_id(1), golden_batch());
  ASSERT_EQ(to_hex(golden), k_golden_batch_hex);
  const decoded want = decode_both_ways({golden}, "intact");
  ASSERT_EQ(want.frames.size(), 1u);
  EXPECT_EQ(want.frames[0].from, server_id(1));
  EXPECT_EQ(want.frames[0].batch, golden_batch());
  EXPECT_FALSE(want.corrupt);

  // A cut frame only waits: nothing comes out, nothing latches, and the
  // rest of its bytes complete it.
  for (std::size_t len = 0; len < golden.size(); ++len) {
    const std::vector<std::uint8_t> head(golden.begin(), golden.begin() + len);
    const std::vector<std::uint8_t> tail(golden.begin() + len, golden.end());
    const std::string what = "cut at " + std::to_string(len);
    const auto cut = decode_both_ways({head}, what);
    EXPECT_TRUE(cut.frames.empty()) << what;
    EXPECT_FALSE(cut.corrupt) << what;
    expect_same(decode_both_ways({head, tail}, what), want, what);
  }
  // A flipped bit may change what decodes, skip the frame or latch
  // corrupt(), but both paths must agree on which.
  for (std::size_t at = 0; at < golden.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bytes = golden;
      bytes[at] ^= static_cast<std::uint8_t>(1u << bit);
      (void)decode_both_ways(
          {bytes}, "bit " + std::to_string(bit) + " of byte " +
                       std::to_string(at));
    }
  }
}

TEST(Framing, DecodeOverwritesEveryFieldOfAReusedMessage) {
  // golden_batch's two messages set every wire field between them:
  // decoding each into a message that holds the other leaves nothing of
  // the old contents behind.
  const auto msgs = golden_batch();
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    byte_writer w;
    encode_message(w, msgs[i]);
    byte_reader r(w.bytes());
    message m = msgs[1 - i];
    ASSERT_TRUE(decode_message(r, m)) << i;
    EXPECT_TRUE(r.exhausted()) << i;
    EXPECT_EQ(m, msgs[i]) << i;
  }
}

TEST(Framing, EveryTruncatedMessageIsRejected) {
  // Every field is required: no strict prefix of an encoded message
  // decodes, whichever field it cuts.
  for (const auto& want : golden_batch()) {
    byte_writer w;
    encode_message(w, want);
    const auto& bytes = w.bytes();
    for (std::size_t n = 0; n < bytes.size(); ++n) {
      byte_reader r(std::span<const std::uint8_t>(bytes.data(), n));
      message m;
      EXPECT_FALSE(decode_message(r, m)) << "prefix of " << n << " bytes";
    }
  }
}

TEST(Framing, NextHandsOverItsBatch) {
  // next() gives the caller the frame, batch included: a frame popped
  // earlier keeps its messages while later frames decode.
  const auto msgs = golden_batch();
  const std::vector<message> one = {msgs[1]};
  auto bytes = encode_batch_frame(server_id(1), msgs);
  const auto second = encode_batch_frame(server_id(2), one);
  bytes.insert(bytes.end(), second.begin(), second.end());
  frame_buffer fb;
  fb.feed(bytes.data(), bytes.size());
  const auto f1 = fb.next();
  const auto f2 = fb.next();
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f1->batch, msgs);
  EXPECT_EQ(f2->from, server_id(2));
  EXPECT_EQ(f2->batch, one);
}

// ---------------------------------------------------------- delivery unit
//
// batching.h's parity claim: on both transports every send is one
// delivery unit, handed to the receiving automaton as one on_batch step.

/// Records the size and the messages of every on_batch step it takes;
/// counts on_message calls, which no transport makes directly.
class step_recorder final : public automaton {
 public:
  explicit step_recorder(process_id self) : self_(self) {}

  void on_message(netout&, const process_id&, const message&) override {
    ++direct_messages;
  }
  void on_batch(netout&, const process_id& from,
                std::span<const message> msgs) override {
    steps.emplace_back(msgs.begin(), msgs.end());
    senders.push_back(from);
  }
  [[nodiscard]] process_id self() const override { return self_; }

  std::vector<std::vector<message>> steps;
  /// Each step's sender.
  std::vector<process_id> senders;
  std::size_t direct_messages{0};

 private:
  process_id self_;
};

/// One send of a lone message, then one send_batch of three.
void send_one_then_three(netout& net, const process_id& to) {
  message m;
  m.type = msg_type::read_req;
  m.rcounter = 1;
  net.send(to, m);
  std::vector<message> three(3);
  for (std::size_t i = 0; i < three.size(); ++i) {
    three[i].type = msg_type::read_req;
    three[i].rcounter = 2 + i;
  }
  net.send_batch(to, three);
}

void expect_one_step_per_send(const std::vector<std::vector<message>>& steps,
                              std::size_t direct_messages) {
  EXPECT_EQ(direct_messages, 0u);
  ASSERT_EQ(steps.size(), 2u);
  ASSERT_EQ(steps[0].size(), 1u);
  ASSERT_EQ(steps[1].size(), 3u);
  EXPECT_EQ(steps[0][0].rcounter, 1u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(steps[1][i].rcounter, 2 + i);
  }
}

TEST(DeliveryUnit, SimWorldDeliversEachSendAsOneStep) {
  sim::world w(make_cfg(3, 1, 1));
  w.install(*make_protocol("abd"));
  auto owned = std::make_unique<step_recorder>(server_id(0));
  const step_recorder& rec = *owned;
  w.replace_automaton(server_id(0), std::move(owned));
  w.invoke_step(reader_id(0),
                [](netout& net) { send_one_then_three(net, server_id(0)); });
  EXPECT_EQ(w.envelopes_sent(), 2u);
  EXPECT_EQ(w.messages_sent(), 4u);
  EXPECT_EQ(w.deliver_matching([](const sim::envelope&) { return true; }),
            2u);
  expect_one_step_per_send(rec.steps, rec.direct_messages);
}

TEST(DeliveryUnit, TcpNodesDeliverEachSendAsOneStep) {
  const auto cfg = make_cfg(3, 1, 1);
  auto book = std::make_shared<address_book>();
  node server(cfg, book);
  server.add_actor(std::make_unique<step_recorder>(server_id(0)));
  server.bind_listener(0);
  book->server_ports = {server.listen_port()};
  node client(cfg, book);
  client.add_actor(std::make_unique<step_recorder>(reader_id(0)));
  server.start();
  client.start();
  ASSERT_TRUE(client.run_on_reactor(0, [](automaton&, netout& net) {
    send_one_then_three(net, server_id(0));
  }));
  // Read the server automaton's steps on its own reactor.
  std::vector<std::vector<message>> steps;
  std::size_t direct_messages = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (steps.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(server.run_on_reactor(0, [&](automaton& a, netout&) {
      const auto& rec = static_cast<const step_recorder&>(a);
      steps = rec.steps;
      direct_messages = rec.direct_messages;
    }));
  }
  client.stop();
  server.stop();
  expect_one_step_per_send(steps, direct_messages);
}

TEST(DeliveryUnit, TcpSendBatchEmptiesTheCallersBufferAndKeepsIt) {
  // netout::send_batch's contract: the caller's vector is a buffer it
  // reuses. The TCP port encodes the messages in place and hands the
  // buffer back empty, its capacity (and storage) intact, and each send
  // is still one on_batch step at the receiver.
  const auto cfg = make_cfg(3, 1, 1);
  auto book = std::make_shared<address_book>();
  node server(cfg, book);
  server.add_actor(std::make_unique<step_recorder>(server_id(0)));
  server.bind_listener(0);
  book->server_ports = {server.listen_port()};
  node client(cfg, book);
  client.add_actor(std::make_unique<step_recorder>(reader_id(0)));
  server.start();
  client.start();
  constexpr std::size_t k_sends = 3;
  std::vector<std::size_t> sizes_after;
  std::vector<bool> same_storage;
  ASSERT_TRUE(client.run_on_reactor(0, [&](automaton&, netout& net) {
    std::vector<message> buf;
    buf.reserve(8);
    const message* storage = buf.data();
    for (std::size_t s = 0; s < k_sends; ++s) {
      for (std::size_t i = 0; i <= s; ++i) {
        message m;
        m.type = msg_type::read_req;
        m.rcounter = 10 * s + i;
        buf.push_back(m);
      }
      net.send_batch(server_id(0), buf);
      sizes_after.push_back(buf.size());
      same_storage.push_back(buf.data() == storage && buf.capacity() >= 8);
    }
  }));
  EXPECT_EQ(sizes_after, std::vector<std::size_t>(k_sends, 0));
  EXPECT_EQ(same_storage, std::vector<bool>(k_sends, true));
  std::vector<std::vector<message>> steps;
  std::size_t direct_messages = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (steps.size() < k_sends &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(server.run_on_reactor(0, [&](automaton& a, netout&) {
      const auto& rec = static_cast<const step_recorder&>(a);
      steps = rec.steps;
      direct_messages = rec.direct_messages;
    }));
  }
  client.stop();
  server.stop();
  EXPECT_EQ(direct_messages, 0u);
  ASSERT_EQ(steps.size(), k_sends);
  for (std::size_t s = 0; s < k_sends; ++s) {
    ASSERT_EQ(steps[s].size(), s + 1);
    for (std::size_t i = 0; i <= s; ++i) {
      EXPECT_EQ(steps[s][i].rcounter, 10 * s + i);
    }
  }
}

/// A message of `type` with rcounter `rc` and `val` in val and prev.
message parked_msg(msg_type type, std::uint64_t rc, const std::string& val) {
  message m;
  m.type = type;
  m.rcounter = rc;
  m.val = val;
  m.prev = val;
  return m;
}

constexpr std::uint32_t k_parked_servers = 3;

/// One store step's sends through a tagging_netout, then its flush: a
/// unicast to server 1, a broadcast to all three servers, another
/// unicast to server 1 and a broadcast that skips server 0. Server 1's
/// list interleaves its own messages with both broadcasts.
void park_step(netout& net) {
  store::batch_collector out;
  store::tagging_netout tagged(out, /*obj=*/7, /*epoch=*/3, /*attempt=*/2,
                               /*mig=*/false, /*trace=*/99, /*span=*/1);
  tagged.send(server_id(1), parked_msg(msg_type::read_req, 1, ""));
  tagged.broadcast(k_parked_servers,
                   parked_msg(msg_type::write_req, 2, std::string(16, 'v')));
  tagged.send(server_id(1), parked_msg(msg_type::read_req, 3, ""));
  tagged.broadcast(k_parked_servers, parked_msg(msg_type::query_req, 4, "q"),
                   /*except=*/0);
  out.flush(net);
}

using dest_lists = std::vector<std::pair<process_id, std::vector<message>>>;

/// What park_step sends, as per-destination copies each stamped on its
/// own (a send per target): destinations in first-touch order, each
/// list in send order.
dest_lists parked_copies() {
  const auto stamped = [](message m) {
    m.obj = 7;
    m.epoch = 3;
    m.attempt = 2;
    m.trace = 99;
    m.span = 1;
    return m;
  };
  const message u1 = stamped(parked_msg(msg_type::read_req, 1, ""));
  const message b1 =
      stamped(parked_msg(msg_type::write_req, 2, std::string(16, 'v')));
  const message u2 = stamped(parked_msg(msg_type::read_req, 3, ""));
  const message b2 = stamped(parked_msg(msg_type::query_req, 4, "q"));
  return {{server_id(1), {u1, b1, u2, b2}},
          {server_id(0), {b1}},
          {server_id(2), {b1, b2}}};
}

TEST(DeliveryUnit, SimBroadcastEnvelopesHoldPerDestinationCopies) {
  // The simulator takes owned lists: a parked broadcast reaches each
  // destination's envelope as a message equal to a per-target copy.
  sim::world w(make_cfg(k_parked_servers, 1, 1));
  w.install(*make_protocol("abd"));
  w.invoke_step(reader_id(0), park_step);
  dest_lists got;
  for (const auto& e : w.in_transit()) got.emplace_back(e.to, e.msgs);
  EXPECT_EQ(got, parked_copies());
  EXPECT_EQ(w.messages_sent(), 7u);
}

TEST(DeliveryUnit, TcpBroadcastFramesMatchPerDestinationCopies) {
  // On TCP each destination's frame borrows the broadcast: its bytes
  // must be exactly the frame of that destination's per-target copies,
  // after the hello.
  std::vector<unique_fd> listeners;
  auto book = std::make_shared<address_book>();
  for (std::uint32_t i = 0; i < k_parked_servers; ++i) {
    listeners.push_back(listen_on(0));
    book->server_ports.push_back(local_port(listeners.back().get()));
  }
  node client(make_cfg(k_parked_servers, 1, 1), book);
  client.add_actor(std::make_unique<step_recorder>(reader_id(0)));
  client.start();
  ASSERT_TRUE(client.run_on_reactor(
      0, [](automaton&, netout& net) { park_step(net); }));
  for (const auto& [to, msgs] : parked_copies()) {
    auto want = encode_hello(reader_id(0));
    const auto frame = encode_batch_frame(reader_id(0), msgs);
    want.insert(want.end(), frame.begin(), frame.end());
    std::vector<std::uint8_t> got;
    std::optional<unique_fd> conn;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (got.size() < want.size() &&
           std::chrono::steady_clock::now() < deadline) {
      if (!conn) {
        conn = accept_one(listeners[to.index].get());
      } else {
        std::uint8_t buf[4096];
        const ssize_t n = ::recv(conn->get(), buf, sizeof buf, 0);
        if (n > 0) got.insert(got.end(), buf, buf + n);
      }
      if (got.size() < want.size()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    EXPECT_EQ(got, want) << to_string(to);
  }
  client.stop();
}

TEST(DeliveryUnit, TcpStepSeesOnlyItsFramesMessagesAfterAMalformedFrame) {
  // A connection decodes each frame over the messages it kept from the
  // last one. A good 3-message frame, a malformed one (its third message
  // is cut short, after two decoded over the kept ones), then a
  // 1-message frame: the last step sees exactly that one message, every
  // field of it as sent.
  const auto cfg = make_cfg(3, 1, 1);
  auto book = std::make_shared<address_book>();
  node server(cfg, book);
  server.add_actor(std::make_unique<step_recorder>(server_id(0)));
  server.bind_listener(0);
  server.start();
  const auto gold = golden_batch();
  const std::vector<message> three = {gold[1], gold[0], gold[1]};
  const std::vector<message> one = {gold[0]};
  auto bad = encode_batch_frame(reader_id(0), three);
  bad.pop_back();
  const auto len = static_cast<std::uint32_t>(bad.size() - 4);
  std::memcpy(bad.data(), &len, 4);
  auto bytes = encode_hello(reader_id(0));
  for (const auto& f : {encode_batch_frame(reader_id(0), three), bad,
                        encode_batch_frame(reader_id(0), one)}) {
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
  const std::uint64_t malformed0 = malformed_frames();
  unique_fd peer = connect_to(server.listen_port());
  ASSERT_TRUE(peer.valid());
  pollfd pfd{peer.get(), POLLOUT, 0};
  ASSERT_GT(::poll(&pfd, 1, 5000), 0);
  ASSERT_EQ(::send(peer.get(), bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  std::vector<std::vector<message>> steps;
  std::size_t direct_messages = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (steps.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(server.run_on_reactor(0, [&](automaton& a, netout&) {
      const auto& rec = static_cast<const step_recorder&>(a);
      steps = rec.steps;
      direct_messages = rec.direct_messages;
    }));
  }
  server.stop();
  EXPECT_EQ(direct_messages, 0u);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0], three);
  EXPECT_EQ(steps[1], one);
  EXPECT_EQ(malformed_frames() - malformed0, 1u);
}

// -------------------------------------------------------------------- node

TEST(Node, RunOnReactorRefusesAStoppedNode) {
  // run_on_reactor never runs a step on its caller's thread: a node that
  // is not running refuses it, and a stop() racing a stream of calls
  // leaves every call either run on the reactor or refused.
  node n(make_cfg(3, 1, 1), std::make_shared<address_book>());
  n.add_actor(std::make_unique<step_recorder>(reader_id(0)));
  int runs = 0;
  const auto count = [&](automaton&, netout&) { ++runs; };
  EXPECT_FALSE(n.run_on_reactor(0, count));  // never started
  EXPECT_EQ(runs, 0);
  n.start();
  EXPECT_TRUE(n.run_on_reactor(0, count));
  EXPECT_EQ(runs, 1);
  n.stop();
  EXPECT_FALSE(n.run_on_reactor(0, count));
  EXPECT_EQ(runs, 1);

  n.start();
  const auto caller = std::this_thread::get_id();
  std::atomic<int> calls{0};
  std::thread stopper([&] {
    while (calls.load() < 50) std::this_thread::yield();
    n.stop();
  });
  int ran = 0;
  int refused = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (refused < 10 && std::chrono::steady_clock::now() < deadline) {
    std::thread::id ran_on{};
    const bool ok = n.run_on_reactor(0, [&](automaton&, netout&) {
      ran_on = std::this_thread::get_id();
    });
    ++calls;
    if (ok) {
      ++ran;
      EXPECT_NE(ran_on, std::thread::id{});
      EXPECT_NE(ran_on, caller);
    } else {
      ++refused;
      EXPECT_EQ(ran_on, std::thread::id{});
    }
  }
  stopper.join();
  EXPECT_GE(ran, 50);
  EXPECT_EQ(refused, 10);
}

/// Answers every batch with one read_ack to its sender, then counts the
/// answer, which leaves at the end of the server's reactor pass.
class echo_server final : public automaton {
 public:
  echo_server(process_id self, std::atomic<int>& answered)
      : self_(self), answered_(answered) {}

  void on_message(netout&, const process_id&, const message&) override {}
  void on_batch(netout& net, const process_id& from,
                std::span<const message>) override {
    message m;
    m.type = msg_type::read_ack;
    net.send(from, m);
    ++answered_;
  }
  [[nodiscard]] process_id self() const override { return self_; }

 private:
  process_id self_;
  std::atomic<int>& answered_;
};

/// Logs each on_batch step as 'b' (and its size); its step hook logs 'h'.
/// Both run on the client's reactor, so only the log's reader after
/// stop() sees it from another thread.
class cadence_recorder final : public automaton {
 public:
  explicit cadence_recorder(process_id self) : self_(self) {}

  void on_message(netout&, const process_id&, const message&) override {}
  void on_batch(netout&, const process_id&,
                std::span<const message> msgs) override {
    log.push_back('b');
    batch_sizes.push_back(msgs.size());
    ++batches;
  }
  [[nodiscard]] process_id self() const override { return self_; }

  static void hook(automaton& a, netout&) {
    static_cast<cadence_recorder&>(a).log.push_back('h');
  }

  std::string log;
  std::vector<std::size_t> batch_sizes;
  std::atomic<int> batches{0};

 private:
  process_id self_;
};

/// Waits up to 10 s for `done`.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(Node, StepHookRunsOncePerReactorPass) {
  // Three servers' replies and a schedule_step land in one reactor pass
  // of the client: the client's hook runs once, after all three on_batch
  // steps, and each frame is still one on_batch step.
  constexpr std::uint32_t k_servers = 3;
  const auto cfg = make_cfg(k_servers, 1, 1);
  auto book = std::make_shared<address_book>();
  std::atomic<int> answered{0};
  std::vector<std::unique_ptr<node>> servers;
  for (std::uint32_t i = 0; i < k_servers; ++i) {
    servers.push_back(std::make_unique<node>(cfg, book));
    servers.back()->add_actor(
        std::make_unique<echo_server>(server_id(i), answered));
    servers.back()->bind_listener(0);
    book->server_ports.push_back(servers.back()->listen_port());
  }
  node client(cfg, book);
  auto owned = std::make_unique<cadence_recorder>(reader_id(0));
  cadence_recorder& rec = *owned;
  client.add_actor(std::move(owned));
  client.set_step_hook(0, cadence_recorder::hook);
  for (auto& s : servers) s->start();
  client.start();
  const auto send_to_all = [&](netout& net) {
    message m;
    m.type = msg_type::read_req;
    for (std::uint32_t i = 0; i < k_servers; ++i) net.send(server_id(i), m);
  };

  // Warm up: open the connections, so the held pass below only reads.
  ASSERT_TRUE(client.run_on_reactor(
      0, [&](automaton&, netout& net) { send_to_all(net); }));
  ASSERT_TRUE(eventually([&] { return rec.batches.load() == 3; }));

  // The sends leave at the end of their step's pass, so they go out in a
  // step of their own, to paused servers that leave them unread.
  for (auto& s : servers) s->set_fault_all(conn_fault::pause);
  ASSERT_TRUE(client.run_on_reactor(
      0, [&](automaton&, netout& net) { send_to_all(net); }));

  std::atomic<bool> scheduled{false};
  std::thread stepper([&] {
    // Meanwhile, from another thread: one step that only runs the hook.
    if (!eventually([&] { return answered.load() == 6; })) return;
    EXPECT_TRUE(client.schedule_step(0));
    scheduled = true;
  });
  bool held = false;
  ASSERT_TRUE(client.run_on_reactor(0, [&](automaton&, netout&) {
    rec.log.clear();
    for (auto& s : servers) s->set_fault_all(conn_fault::none);
    // Hold the reactor until every server answered and the step is
    // queued; the grace lets loopback finish handing the bytes over.
    held = eventually([&] { return scheduled.load(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }));
  stepper.join();
  ASSERT_TRUE(held);
  ASSERT_TRUE(eventually([&] { return rec.batches.load() == 6; }));
  client.stop();
  for (auto& s : servers) s->stop();

  // 'h' right after the run_on_reactor step, then one pass: three frames
  // and one hook run (at one hook per frame and per task: "hhbhbhbh").
  EXPECT_EQ(rec.log, "hbbbh");
  EXPECT_EQ(rec.batch_sizes, std::vector<std::size_t>(6, 1));
}

TEST(Node, EveryMarkedActorRunsItsHookOncePerPass) {
  // Hundreds of actors on one reactor, all stepped in one pass: each
  // hook runs exactly once, in the order the actors were stepped.
  constexpr std::uint32_t k_actors = 300;
  node n(make_cfg(3, 1, k_actors), std::make_shared<address_book>());
  std::vector<std::size_t> order;  // read after stop()
  std::atomic<std::size_t> runs{0};
  for (std::uint32_t i = 0; i < k_actors; ++i) {
    const std::size_t id =
        n.add_actor(std::make_unique<step_recorder>(reader_id(i)));
    n.set_step_hook(id, [&order, &runs, id](automaton&, netout&) {
      order.push_back(id);
      ++runs;
    });
  }
  n.start();
  // Hold the reactor in a step of actor 0 while every actor's step is
  // queued, so the next pass runs all of them.
  std::atomic<bool> holding{false};
  std::atomic<bool> queued{false};
  std::thread stepper([&] {
    if (!eventually([&] { return holding.load(); })) return;
    for (std::size_t i = k_actors; i-- > 0;) {
      EXPECT_TRUE(n.schedule_step(i));
    }
    queued = true;
  });
  bool held = false;
  ASSERT_TRUE(n.run_on_reactor(0, [&](automaton&, netout&) {
    holding = true;
    held = eventually([&] { return queued.load(); });
  }));
  stepper.join();
  ASSERT_TRUE(held);
  ASSERT_TRUE(eventually([&] { return runs.load() == k_actors + 1; }));
  n.stop();

  // Actor 0's hook ran right after the holding step; then the pass ran
  // every hook once, in the (reversed) order schedule_step was called.
  std::vector<std::size_t> want{0};
  for (std::size_t i = k_actors; i-- > 0;) want.push_back(i);
  EXPECT_EQ(order, want);
}

TEST(Node, ServerFrameSenderIsTheConnectionsServer) {
  // A frame a server writes on a client's connection names the client
  // actor it is for; the sender is the server the connection was opened
  // to, whatever the frame says. A frame naming a process that is no
  // actor of the node -- here server 2, which the server at index 1
  // would pose as -- is malformed: skipped, with the stream kept.
  constexpr std::uint32_t k_servers = 3;
  std::vector<unique_fd> listeners;
  auto book = std::make_shared<address_book>();
  for (std::uint32_t i = 0; i < k_servers; ++i) {
    listeners.push_back(listen_on(0));
    book->server_ports.push_back(local_port(listeners.back().get()));
  }
  node client(make_cfg(k_servers, 1, 1), book);
  client.add_actor(std::make_unique<step_recorder>(reader_id(0)));
  client.start();
  ASSERT_TRUE(client.run_on_reactor(0, [](automaton&, netout& net) {
    message m;
    m.type = msg_type::read_req;
    net.send(server_id(1), m);
  }));
  std::optional<unique_fd> fake;
  ASSERT_TRUE(eventually([&] {
    fake = accept_one(listeners[1].get());
    return fake.has_value();
  }));

  const auto rc = [](std::uint64_t n) {
    message m;
    m.type = msg_type::read_ack;
    m.rcounter = n;
    return m;
  };
  std::vector<std::uint8_t> bytes;
  for (const auto& [named, n] :
       {std::pair{reader_id(0), 1u}, std::pair{server_id(2), 2u},
        std::pair{reader_id(0), 3u}}) {
    const auto f = one_message_frame(named, rc(n));
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
  const std::uint64_t malformed0 = malformed_frames();
  ASSERT_EQ(::send(fake->get(), bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  std::vector<std::vector<message>> steps;
  std::vector<process_id> senders;
  ASSERT_TRUE(eventually([&] {
    EXPECT_TRUE(client.run_on_reactor(0, [&](automaton& a, netout&) {
      const auto& rec = static_cast<const step_recorder&>(a);
      steps = rec.steps;
      senders = rec.senders;
    }));
    return steps.size() >= 2;
  }));
  client.stop();
  EXPECT_EQ(steps, (std::vector<std::vector<message>>{{rc(1)}, {rc(3)}}));
  EXPECT_EQ(senders, (std::vector<process_id>{server_id(1), server_id(1)}));
  EXPECT_EQ(malformed_frames() - malformed0, 1u);
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
  // or crash, count the corrupt stream, and keep serving unrelated
  // clients.
  const std::uint64_t corrupt_before = corrupt_streams();
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
  EXPECT_GE(corrupt_streams() - corrupt_before, 1u);

  ASSERT_TRUE(w.write("after-garbage"));
  const auto res = r.read();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->val, "after-garbage");
  ts.stop();
}

TEST(Cluster, FrameFromAServerBeyondSIsSkippedAndTheServerKeepsServing) {
  // maxmin servers key a read's gossip senders by server index. Frames
  // naming a server this S = 3 deployment does not have -- inside the
  // 64-server mask (3) and beyond it (64) -- are malformed: the server
  // skips them, keeps the stream and keeps serving.
  tcp_store ts(one_register(make_cfg(3, 1, 1), "maxmin"));
  ts.start();
  register_client w(ts.frontend(), writer_id(0));
  register_client r(ts.frontend(), reader_id(0));
  ASSERT_TRUE(w.write("before-forged-senders"));

  const std::uint64_t malformed0 = malformed_frames();
  unique_fd evil = connect_to(ts.cluster().book().server_ports[0]);
  ASSERT_TRUE(evil.valid());
  message gossip;
  gossip.type = msg_type::gossip;
  gossip.origin = reader_id(0);
  gossip.rcounter = 1;
  auto bytes = encode_hello(server_id(server_set::max_servers));
  for (const std::uint32_t i : {3u, server_set::max_servers}) {
    const auto f = one_message_frame(server_id(i), gossip);
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
  ASSERT_EQ(::send(evil.get(), bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (malformed_frames() - malformed0 < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(malformed_frames() - malformed0, 3u);
  // The stream was kept: the server did not close it.
  pollfd pfd{evil.get(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 100), 0);

  ASSERT_TRUE(w.write("after-forged-senders"));
  const auto res = r.read();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->val, "after-forged-senders");
  ts.stop();
}

TEST(Cluster, RetiredStatsFramesAreSkippedAndTheServerKeepsServing) {
  // A peer still sending the retired metrics-scrape types (17, 18) gets
  // no answer: each frame is counted malformed and skipped, the stream is
  // kept, and the deployment keeps serving.
  tcp_store ts(one_register(make_cfg(3, 1, 1), "abd"));
  ts.start();
  register_client w(ts.frontend(), writer_id(0));
  register_client r(ts.frontend(), reader_id(0));
  ASSERT_TRUE(w.write("before-retired-frames"));

  const std::uint64_t malformed0 = malformed_frames();
  unique_fd old_peer = connect_to(ts.cluster().book().server_ports[0]);
  ASSERT_TRUE(old_peer.valid());
  message m;
  m.type = msg_type::read_req;
  // The message's type byte follows the frame header (length, kind,
  // sender, count).
  const std::size_t at = 4 + 1 + process_id_wire_size() + 4;
  std::vector<std::uint8_t> bytes;
  for (const std::uint8_t retired : {17, 18}) {
    auto f = one_message_frame(reader_id(0), m);
    ASSERT_EQ(f[at], static_cast<std::uint8_t>(msg_type::read_req));
    f[at] = retired;
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
  ASSERT_EQ(::send(old_peer.get(), bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (malformed_frames() - malformed0 < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(malformed_frames() - malformed0, 2u);
  // Nothing came back and the stream was kept open.
  pollfd pfd{old_peer.get(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 100), 0);

  ASSERT_TRUE(w.write("after-retired-frames"));
  const auto res = r.read();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->val, "after-retired-frames");
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
  ts.crash_server(0);  // one server goes dark: within t = 1
  ASSERT_TRUE(w.write("after-crash"));
  const auto r0 = r.read();
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->val, "after-crash");
  ts.stop();
}

/// Live sum of every fastreg_net_reactor_connections series of a server
/// node (labels render as node="s1", node="s2", ...).
double server_connections() {
  return obs::series_sum(obs::snapshot(), "fastreg_net_reactor_connections",
                         "node=\"s");
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
      obs::series_sum(obs::snapshot(), "fastreg_net_reactor_accepts_total");
  const double resets_before =
      obs::series_sum(obs::snapshot(), "fastreg_net_conn_resets_total");

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

  const auto after = obs::snapshot();
  EXPECT_EQ(obs::series_sum(after, "fastreg_net_reactor_accepts_total"),
            accepts_before)
      << "a connection was closed and re-accepted during the storm";
  EXPECT_EQ(obs::series_sum(after, "fastreg_net_conn_resets_total"),
            resets_before);

  EXPECT_TRUE(ts.gather().verify().ok);
  ts.stop();
  ASSERT_EQ(pthread_sigmask(SIG_SETMASK, &old_set, nullptr), 0);
  ASSERT_EQ(::sigaction(SIGUSR1, &old_sa, nullptr), 0);
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
  tcp_store ts(one_register(make_cfg(5, 1, 3), "maxmin"), node_options{},
               copt);
  const double ships0 =
      obs::series_sum(obs::snapshot(), "fastreg_net_reactor_ships_total");
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
  out.ships =
      obs::series_sum(obs::snapshot(), "fastreg_net_reactor_ships_total") -
      ships0;
  out.check =
      checker::check_swmr_atomicity(ts.gather().all().at(k_register_key));
  return out;
}

TEST(Cluster, MultiReactorServersShipGossipAcrossReactors) {
  // A server actor steps on whichever of its node's reactors received the
  // frame, but a reader's connection lives on the reactor that accepted
  // it. maxmin servers gossip with each other, and the gossip that
  // completes a read's quorum makes the server answer the reader from the
  // reactor the gossip landed on: with several reactors per server node
  // that answer is shipped to the connection's owner (node::ship_to).
  // Gossip itself never ships: every reactor sends to a peer server over
  // a connection of its own. With one reactor per node nothing ships.
  const auto multi = run_maxmin_with_server_reactors(4);
  EXPECT_GT(multi.ships, 0.0);
  EXPECT_TRUE(multi.check.ok) << multi.check.error;
  const auto single = run_maxmin_with_server_reactors(1);
  EXPECT_EQ(single.ships, 0.0);
  EXPECT_TRUE(single.check.ok) << single.check.error;
}

/// How many of the client node's reactors ran a task while every client
/// of a W = 2, R = 3 register did one op.
std::size_t client_reactors_used(const cluster_options& copt) {
  tcp_store ts(one_register(make_cfg(5, 1, 3, 0, 2), "mwmr"), node_options{},
               copt);
  const std::vector<process_id> clients = {writer_id(0), writer_id(1),
                                           reader_id(0), reader_id(1),
                                           reader_id(2)};
  node& n = ts.cluster().client_node(clients[0]);
  for (const auto& pid : clients) {
    EXPECT_EQ(&ts.cluster().client_node(pid), &n) << to_string(pid);
  }
  // Rows outlive their nodes and a label names the node's first actor,
  // so an earlier cluster's client node may have left rows under the
  // same label: count only the rows this run moves.
  const std::string label = "node=\"" + to_string(n.self()) + "\"";
  const auto before = obs::snapshot();
  ts.start();
  for (const auto& pid : clients) {
    register_client c(ts.frontend(), pid);
    if (pid.is_writer()) {
      EXPECT_TRUE(c.write("v" + to_string(pid)));
    } else {
      EXPECT_TRUE(c.read().has_value());
    }
  }
  ts.stop();
  std::size_t used = 0;
  for (const auto& row : obs::diff_snapshot(obs::snapshot(), before)) {
    if (row.name.starts_with("fastreg_net_reactor_tasks_total{") &&
        row.name.find(label) != std::string::npos && row.value > 0) {
      ++used;
    }
  }
  return used;
}

TEST(Cluster, EveryClientIsAnActorOfTheOneClientNode) {
  // By default the client node runs one reactor per client (client i on
  // reactor i); under client_hub it runs hub_reactors of them.
  EXPECT_EQ(client_reactors_used({}), 5u);
  cluster_options hub;
  hub.client_hub = true;
  hub.hub_reactors = 2;
  EXPECT_EQ(client_reactors_used(hub), 2u);
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
