// Store quickstart: many named registers over one server fleet.
//
//  1. Configure a sharded store: 4 shards, hot shards on the fast
//     one-round protocol, the rest on ABD.
//  2. put()/get() by key through a session on the deterministic
//     simulator; keys route to shards by hash, each shard runs its own
//     protocol.
//  3. Pipeline a batch of gets: requests and replies share envelopes
//     (the store's batched transport).
//  4. Verify each object's atomicity on the per-key histories.
//
// Build & run:  ./build/store_quickstart
#include <cstdio>

#include "store/sim_store.h"

using namespace fastreg;

int main() {
  // --- 1. Configuration: one fleet, many objects, per-shard protocols.
  store::store_config cfg;
  cfg.base.servers = 7;
  cfg.base.t_failures = 1;
  cfg.base.readers = 2;  // fast_swmr needs R < S/t - 2 = 5
  cfg.num_shards = 4;
  cfg.shard_protocols = {"fast_swmr", "abd"};  // shards 0,2 fast; 1,3 abd
  std::printf("store: %s\n\n", cfg.describe().c_str());

  store::sim_store s(cfg);
  rng schedule(/*seed=*/2026);
  sim::uniform_delay delays(50, 150);
  // Sessions: the store's one client path (store::tcp_store hands out the
  // same ones over TCP). The frontend's rng drives blocking calls only.
  store::sim_frontend fe(s, schedule);
  auto writer = fe.open_session(writer_id(0), /*depth=*/1);
  auto reader = fe.open_session(reader_id(0), /*depth=*/1);

  // --- 2. Keyed writes and reads: put/get issue the op, the schedule
  // delivers it, and the session collects the result.
  for (const char* key : {"user:alice", "user:bob", "cfg:limit"}) {
    if (!writer->put(key, std::string("value-of-") + key)) return 1;
    s.run_timed(schedule, delays);
  }
  for (const char* key : {"user:alice", "cfg:limit"}) {
    if (!reader->get(key)) return 1;
    s.run_timed(schedule, delays);
    const auto got = reader->take_results();
    std::printf("get(%s) -> \"%s\"  (shard %u, %s, %d round-trip%s)\n", key,
                got.back().val.c_str(), s.shards()->shard_of_key(key),
                s.shards()->protocol_for_object(store::key_object_id(key))
                    .name()
                    .c_str(),
                got.back().rounds, got.back().rounds == 1 ? "" : "s");
  }

  // --- 3. A pipelined batch: 8 gets leave in ONE envelope per server.
  const auto env_before = s.world().envelopes_sent();
  const auto msg_before = s.world().messages_sent();
  auto batch = fe.open_session(reader_id(1), /*depth=*/8);
  for (int i = 0; i < 8; ++i) {
    if (batch->try_get("item" + std::to_string(i)) !=
        store::submit_status::submitted) {
      return 1;
    }
  }
  batch->pump();  // one invocation step for all 8
  s.run_timed(schedule, delays);
  std::printf("\nbatched 8 gets: %llu envelopes carried %llu messages\n",
              static_cast<unsigned long long>(s.world().envelopes_sent() -
                                              env_before),
              static_cast<unsigned long long>(s.world().messages_sent() -
                                              msg_before));

  // --- 4. Per-key verification.
  const auto hist = fe.gather();
  const auto res = hist.verify();
  std::printf("\n%zu keys, %zu ops, per-key atomicity: %s\n",
              hist.key_count(), hist.total_ops(),
              res.ok ? "OK" : res.error.c_str());
  return res.ok ? 0 : 1;
}
