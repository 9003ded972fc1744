// Unit tests: ids, seen sets, serialization, deterministic RNG.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/seen_set.h"
#include "common/server_set.h"
#include "common/serialization.h"
#include "common/types.h"

namespace fastreg {
namespace {

TEST(ProcessId, RolesAreDisjoint) {
  EXPECT_NE(writer_id(0), reader_id(0));
  EXPECT_NE(reader_id(0), server_id(0));
  EXPECT_NE(writer_id(0), server_id(0));
  EXPECT_EQ(reader_id(3), reader_id(3));
}

TEST(ProcessId, ClientSlotMatchesPaperPidFunction) {
  // Figure 2: pid(w) = 0, pid(r_i) = i.
  EXPECT_EQ(client_slot(writer_id(0)), 0u);
  EXPECT_EQ(client_slot(reader_id(0)), 1u);  // paper's r_1
  EXPECT_EQ(client_slot(reader_id(9)), 10u);
}

TEST(ProcessId, ToStringUsesPaperNames) {
  EXPECT_EQ(to_string(writer_id(0)), "w");
  EXPECT_EQ(to_string(reader_id(0)), "r1");
  EXPECT_EQ(to_string(server_id(4)), "s5");
}

TEST(MsgType, EveryWireKindHasOneDistinctName) {
  // The one name table every layer renders through: each code the wire
  // carries has its own name, and no code outside 1..k_max_msg_type
  // (0, or the retired 17 and 18) borrows one.
  std::set<std::string> names;
  for (unsigned c = 1; c <= k_max_msg_type; ++c) {
    const std::string name = to_string(static_cast<msg_type>(c));
    EXPECT_NE(name, "?") << c;
    EXPECT_FALSE(name.empty()) << c;
    EXPECT_TRUE(names.insert(name).second) << name << " named twice";
  }
  EXPECT_EQ(names.size(), k_max_msg_type);
  for (const unsigned c : {0u, k_max_msg_type + 1u, k_max_msg_type + 2u}) {
    EXPECT_STREQ(to_string(static_cast<msg_type>(c)), "?") << c;
  }
}

TEST(SeenSet, InsertAndContains) {
  seen_set s;
  EXPECT_TRUE(s.empty());
  s.insert(writer_id(0));
  s.insert(reader_id(2));
  EXPECT_TRUE(s.contains(writer_id(0)));
  EXPECT_TRUE(s.contains(reader_id(2)));
  EXPECT_FALSE(s.contains(reader_id(0)));
  EXPECT_EQ(s.size(), 2u);
}

TEST(SeenSet, ClearResetsToEmpty) {
  seen_set s;
  s.insert(reader_id(0));
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(reader_id(0)));
}

TEST(SeenSet, IntersectAndUnite) {
  seen_set a;
  a.insert(writer_id(0));
  a.insert(reader_id(0));
  seen_set b;
  b.insert(reader_id(0));
  b.insert(reader_id(1));
  const seen_set i = a.intersect(b);
  EXPECT_EQ(i.size(), 1u);
  EXPECT_TRUE(i.contains(reader_id(0)));
  const seen_set u = a.unite(b);
  EXPECT_EQ(u.size(), 3u);
}

TEST(SeenSet, UniverseContainsEveryClient) {
  const seen_set u = seen_universe();
  EXPECT_TRUE(u.contains(writer_id(0)));
  EXPECT_TRUE(u.contains(reader_id(61)));
}

TEST(SeenSet, IdempotentInsert) {
  seen_set s;
  s.insert(reader_id(5));
  s.insert(reader_id(5));
  EXPECT_EQ(s.size(), 1u);
}

TEST(ServerSet, InsertReportsFreshnessAndCounts) {
  server_set s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.insert(3));
  EXPECT_FALSE(s.insert(3));  // a second ack from one server
  EXPECT_TRUE(s.insert(0));
  EXPECT_TRUE(s.insert(server_set::max_servers - 1));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(63));
  EXPECT_FALSE(s.contains(1));
  EXPECT_FALSE(s.contains(64));  // out of range is never a member
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(3));
}

TEST(ServerSet, ForEachVisitsMembersInAscendingOrder) {
  server_set s;
  for (const std::uint32_t i : {63u, 5u, 0u, 17u}) s.insert(i);
  std::vector<std::uint32_t> seen;
  s.for_each([&](std::uint32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 5, 17, 63}));
}

TEST(ServerSetDeathTest, IndexBeyondTheMaskIsRejected) {
  server_set s;
  EXPECT_DEATH(s.insert(server_set::max_servers), "precondition");
}

TEST(Serialization, RoundTripsIntegers) {
  byte_writer w;
  w.put_u8(0xab);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefull);
  w.put_i64(-42);
  w.put_i32(-7);
  byte_reader r(std::span<const std::uint8_t>(w.bytes()));
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_i32(), -7);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialization, RoundTripsStringsAndBytes) {
  byte_writer w;
  w.put_string("hello");
  w.put_string("");
  const std::vector<std::uint8_t> blob = {1, 2, 3};
  w.put_bytes(std::span<const std::uint8_t>(blob));
  byte_reader r(std::span<const std::uint8_t>(w.bytes()));
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_bytes(), blob);
}

TEST(Serialization, TruncationYieldsNulloptNotCrash) {
  byte_writer w;
  w.put_u64(7);
  auto bytes = w.bytes();
  bytes.pop_back();
  byte_reader r{std::span<const std::uint8_t>(bytes)};
  EXPECT_EQ(r.get_u64(), std::nullopt);
}

TEST(Serialization, StringLengthBeyondBufferRejected) {
  byte_writer w;
  w.put_u32(1000);  // claims 1000 bytes, provides none
  byte_reader r(std::span<const std::uint8_t>(w.bytes()));
  EXPECT_EQ(r.get_string(), std::nullopt);
}

TEST(Rng, DeterministicForSameSeed) {
  rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowRespectsBound) {
  rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InUnitInterval) {
  rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

}  // namespace
}  // namespace fastreg
