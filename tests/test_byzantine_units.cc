// Unit tests of the Byzantine behaviour wrappers themselves (the attack
// library the E10/E4 experiments rely on).
#include <gtest/gtest.h>

#include "adversary/byzantine.h"
#include "registers/fast_swmr.h"
#include "sim_test_util.h"

namespace fastreg::adversary {
namespace {

using test::make_cfg;

class capture final : public netout {
 public:
  void send(const process_id& to, message m) override {
    out.emplace_back(to, std::move(m));
  }
  std::vector<std::pair<process_id, message>> out;
};

message read_req(std::uint64_t rcounter) {
  message m;
  m.type = msg_type::read_req;
  m.rcounter = rcounter;
  return m;
}

message write_req(ts_t ts, const value_t& v) {
  message m;
  m.type = msg_type::write_req;
  m.ts = ts;
  m.val = v;
  return m;
}

TEST(MuteServer, NeverSendsAnything) {
  mute_server srv(0);
  capture net;
  srv.on_message(net, writer_id(0), write_req(1, "x"));
  srv.on_message(net, reader_id(0), read_req(1));
  EXPECT_TRUE(net.out.empty());
  EXPECT_EQ(srv.self(), server_id(0));
}

TEST(StaleServer, AlwaysAnswersInitialState) {
  stale_server srv(2);
  capture net;
  srv.on_message(net, writer_id(0), write_req(5, "x"));
  srv.on_message(net, reader_id(0), read_req(3));
  ASSERT_EQ(net.out.size(), 2u);
  EXPECT_EQ(net.out[1].second.ts, 0);
  EXPECT_EQ(net.out[1].second.rcounter, 3u);
}

TEST(ForgingServer, EmitsInvalidSignatures) {
  const auto cfg = make_cfg(4, 1, 1, 1, 1, "oracle");
  forging_server srv(1);
  capture net;
  srv.on_message(net, reader_id(0), read_req(1));
  ASSERT_EQ(net.out.size(), 1u);
  // The forged ack must NOT pass receivevalid.
  EXPECT_FALSE(valid_signed_ts(cfg, net.out[0].second));
}

TEST(SeenLiar, PreservesTimestampButInflatesSeen) {
  const auto cfg = make_cfg(4, 1, 3);
  seen_liar_server liar(std::make_unique<fast_swmr_server>(cfg, 0), 3);
  capture net;
  liar.on_message(net, writer_id(0), write_req(1, "x"));
  ASSERT_EQ(net.out.size(), 1u);
  const auto& ack = net.out[0].second;
  EXPECT_EQ(ack.ts, 1);
  EXPECT_EQ(ack.val, "x");
  // Claims all R+1 clients saw it, though only the writer did.
  EXPECT_EQ(ack.seen.size(), 4u);
}

TEST(TwoFaced, ShadowHidesWritesFromTargetOnly) {
  const auto cfg = make_cfg(4, 1, 2);
  two_faced_server tf(std::make_unique<fast_swmr_server>(cfg, 0),
                      std::make_unique<fast_swmr_server>(cfg, 0),
                      {reader_id(0)});
  capture net;
  // Write reaches the real copy only.
  tf.on_message(net, writer_id(0), write_req(7, "secret"));
  ASSERT_EQ(net.out.size(), 1u);  // ack to the writer, from the real copy
  EXPECT_EQ(net.out[0].second.ts, 7);
  net.out.clear();

  // r1 (the shadow target) sees a pre-write world.
  tf.on_message(net, reader_id(0), read_req(1));
  ASSERT_EQ(net.out.size(), 1u);
  EXPECT_EQ(net.out[0].first, reader_id(0));
  EXPECT_EQ(net.out[0].second.ts, 0);
  net.out.clear();

  // r2 sees the truth.
  tf.on_message(net, reader_id(1), read_req(1));
  ASSERT_EQ(net.out.size(), 1u);
  EXPECT_EQ(net.out[0].first, reader_id(1));
  EXPECT_EQ(net.out[0].second.ts, 7);
  EXPECT_EQ(net.out[0].second.val, "secret");
}

TEST(Equivocator, LiesOnlyToEvenReaders) {
  const auto cfg = make_cfg(4, 1, 2);
  equivocating_server eq(std::make_unique<fast_swmr_server>(cfg, 1), 1);
  capture net;
  eq.on_message(net, writer_id(0), write_req(3, "v"));
  net.out.clear();
  eq.on_message(net, reader_id(0), read_req(1));  // even index: stale lie
  eq.on_message(net, reader_id(1), read_req(1));  // odd index: truth
  ASSERT_EQ(net.out.size(), 2u);
  EXPECT_EQ(net.out[0].second.ts, 0);
  EXPECT_EQ(net.out[1].second.ts, 3);
}

}  // namespace
}  // namespace fastreg::adversary
