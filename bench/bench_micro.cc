// Microbenchmarks (google-benchmark): the hot paths that set the
// constant factors behind every experiment -- the fast-read predicate,
// the crypto substrate, wire codec, and raw simulator step throughput.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "crypto/sig.h"
#include "registers/message.h"
#include "registers/predicate.h"
#include "registers/registry.h"
#include "sim/world.h"

namespace fastreg {
namespace {

void BM_PredicateAllSeen(benchmark::State& state) {
  const auto S = static_cast<std::uint32_t>(state.range(0));
  const auto R = static_cast<std::uint32_t>(state.range(1));
  const std::uint32_t t = S / (R + 2) > 0 ? S / (R + 2) - 1 + 1 : 1;
  seen_set all;
  all.insert(writer_id(0));
  for (std::uint32_t i = 0; i < R; ++i) all.insert(reader_id(i));
  std::vector<seen_set> seen(S - t, all);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast_read_predicate(
        std::span<const seen_set>(seen), S, t, 0, R));
  }
}
BENCHMARK(BM_PredicateAllSeen)->Args({8, 2})->Args({32, 6})->Args({64, 12});

void BM_PredicateWorstCaseMixed(benchmark::State& state) {
  const auto S = static_cast<std::uint32_t>(state.range(0));
  const auto R = static_cast<std::uint32_t>(state.range(1));
  const std::uint32_t t = 1;
  // Adversarial: distinct random-ish seen sets so the subset search works.
  rng r(7);
  std::vector<seen_set> seen;
  for (std::uint32_t i = 0; i + t < S; ++i) {
    seen_set s;
    s.insert(writer_id(0));
    for (std::uint32_t j = 0; j < R; ++j) {
      if (r.chance(1, 2)) s.insert(reader_id(j));
    }
    seen.push_back(s);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast_read_predicate(
        std::span<const seen_set>(seen), S, t, 0, R));
  }
}
BENCHMARK(BM_PredicateWorstCaseMixed)->Args({16, 4})->Args({64, 12});

void BM_Sha256(benchmark::State& state) {
  std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256::hash(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_RsaSign(benchmark::State& state) {
  rng r(1);
  const auto kp = crypto::rsa_generate(512, r);
  const std::vector<std::uint8_t> payload(100, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_sign(kp.priv, payload));
  }
}
BENCHMARK(BM_RsaSign);

void BM_RsaVerify(benchmark::State& state) {
  rng r(2);
  const auto kp = crypto::rsa_generate(512, r);
  const std::vector<std::uint8_t> payload(100, 7);
  const auto sig = crypto::rsa_sign(kp.priv, payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_verify(kp.pub, payload, sig));
  }
}
BENCHMARK(BM_RsaVerify);

void BM_OracleSign(benchmark::State& state) {
  crypto::oracle_signature_scheme scheme(1);
  const std::vector<std::uint8_t> payload(100, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.sign(writer_id(0), payload));
  }
}
BENCHMARK(BM_OracleSign);

void BM_MessageCodec(benchmark::State& state) {
  message m;
  m.type = msg_type::read_ack;
  m.ts = 123456;
  m.val = std::string(static_cast<std::size_t>(state.range(0)), 'v');
  m.prev = m.val;
  m.seen.insert(writer_id(0));
  m.rcounter = 42;
  message got;
  for (auto _ : state) {
    byte_writer w;
    encode_message(w, m);
    byte_reader r(std::span<const std::uint8_t>(w.bytes()));
    benchmark::DoNotOptimize(decode_message(r, got));
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_MessageCodec)->Arg(16)->Arg(1024);

void BM_SimulatorOpRoundTrip(benchmark::State& state) {
  // Full write+read cycle on the untimed simulator: measures raw steps/s.
  const auto S = static_cast<std::uint32_t>(state.range(0));
  system_config cfg;
  cfg.servers = S;
  cfg.t_failures = 1;
  cfg.readers = 1;
  sim::world w(cfg);
  auto proto = make_protocol("fast_swmr");
  w.install(*proto);
  rng r(3);
  int k = 0;
  for (auto _ : state) {
    w.invoke_write("v" + std::to_string(++k));
    w.run_random(r);
    w.invoke_read(0);
    w.run_random(r);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SimulatorOpRoundTrip)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace fastreg

BENCHMARK_MAIN();
