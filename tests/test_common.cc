// Unit tests: ids, seen sets, the object table, serialization,
// deterministic RNG.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/object_table.h"
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


// ----------------------------------------------------------- object table

TEST(ObjectTable, MatchesUnorderedMapOnRandomSteps) {
  // A small key range (key 0 included) keeps probe runs long and forces
  // many erases inside clusters.
  rng r(42);
  object_table<std::uint64_t> t;
  std::unordered_map<object_id, std::uint64_t> ref;
  for (int step = 0; step < 100'000; ++step) {
    const object_id key = r.below(48);
    switch (r.below(3)) {
      case 0: {
        const auto [v, fresh] = t.try_emplace(key);
        const auto [it, ref_fresh] = ref.try_emplace(key, 0);
        ASSERT_EQ(fresh, ref_fresh) << "step " << step;
        *v = it->second = r.next();
        break;
      }
      case 1: {
        const std::uint64_t* v = t.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end()) << "step " << step;
        if (v != nullptr) ASSERT_EQ(*v, it->second) << "step " << step;
        break;
      }
      default:
        ASSERT_EQ(t.erase(key), ref.erase(key) == 1) << "step " << step;
        break;
    }
    ASSERT_EQ(t.size(), ref.size()) << "step " << step;
  }
  for (const auto& [key, v] : ref) {
    ASSERT_TRUE(t.contains(key)) << key;
    EXPECT_EQ(*t.find(key), v);
  }
}

TEST(ObjectTable, EraseInsideAClusterThatWrapsPastTheLastSlot) {
  // An 8-slot table homes a key at the top 3 bits of key * 2^64/phi.
  // Three keys homed at the last slot fill slots 7, 0 and 1, and a key
  // homed at slot 0 lands in slot 2. Erasing the first key must shift
  // the other three back across the wrap.
  const auto home8 = [](object_id k) {
    return (k * 0x9E3779B97F4A7C15ull) >> 61;
  };
  std::vector<object_id> last;
  object_id first = 0;
  for (object_id k = 1; last.size() < 3 || first == 0; ++k) {
    if (home8(k) == 7 && last.size() < 3) last.push_back(k);
    if (home8(k) == 0 && first == 0) first = k;
  }
  object_table<int> t;
  t[last[0]] = 10;
  t[last[1]] = 11;
  t[last[2]] = 12;
  t[first] = 20;
  std::vector<object_id> order;
  t.for_each([&](object_id k, int) { order.push_back(k); });
  ASSERT_EQ(order,
            (std::vector<object_id>{last[1], last[2], first, last[0]}));

  EXPECT_TRUE(t.erase(last[0]));
  EXPECT_FALSE(t.contains(last[0]));
  EXPECT_EQ(t.size(), 3u);
  ASSERT_NE(t.find(last[1]), nullptr);
  EXPECT_EQ(*t.find(last[1]), 11);
  ASSERT_NE(t.find(last[2]), nullptr);
  EXPECT_EQ(*t.find(last[2]), 12);
  ASSERT_NE(t.find(first), nullptr);
  EXPECT_EQ(*t.find(first), 20);
  order.clear();
  t.for_each([&](object_id k, int) { order.push_back(k); });
  EXPECT_EQ(order, (std::vector<object_id>{last[2], first, last[1]}));
  EXPECT_FALSE(t.erase(last[0]));
}

TEST(ObjectTable, GrowthKeepsEveryEntry) {
  object_table<std::string> t;
  for (object_id k = 0; k < 10'000; ++k) {
    t[k * 7919] = "v" + std::to_string(k);
    ASSERT_EQ(t.size(), k + 1);
  }
  for (object_id k = 0; k < 10'000; ++k) {
    const std::string* v = t.find(k * 7919);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, "v" + std::to_string(k));
  }
  EXPECT_FALSE(t.contains(1));
}

TEST(ObjectTable, ForEachVisitsEachLiveKeyOnce) {
  rng r(7);
  object_table<object_id> t;
  std::set<object_id> live;
  for (int i = 0; i < 2000; ++i) {
    const object_id key = r.next();
    t[key] = key;
    live.insert(key);
  }
  for (object_id key = 0; key < 50; ++key) {
    t[key] = key;
    live.insert(key);
  }
  // Erase every third live key.
  std::vector<object_id> doomed;
  std::size_t i = 0;
  for (const auto key : live) {
    if (i++ % 3 == 0) doomed.push_back(key);
  }
  for (const auto key : doomed) {
    ASSERT_TRUE(t.erase(key));
    live.erase(key);
  }
  std::map<object_id, int> visits;
  t.for_each([&](object_id key, const object_id& v) {
    EXPECT_EQ(key, v);
    ++visits[key];
  });
  ASSERT_EQ(visits.size(), live.size());
  for (const auto& [key, n] : visits) {
    EXPECT_EQ(n, 1) << key;
    EXPECT_TRUE(live.contains(key)) << key;
  }
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
