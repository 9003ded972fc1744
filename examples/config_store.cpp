// config_store: a replicated configuration register over real TCP.
//
// Scenario (the paper's motivating use: shared variables for cooperating
// programs): one deployment controller publishes configuration versions;
// a fleet of application nodes read the current configuration on their
// hot path. Reads must be atomic -- once any app node observes config v7,
// no node may later observe v6 -- and FAST, because they sit on the
// request path.
//
// With S = 7 replicas and t = 1, the paper allows up to R < 7/1 - 2 = 4
// fast readers. We run 3. Every process is a real socket endpoint with
// its own reactor thread. The register is a one-shard store running
// fast_swmr; each process drives one depth-1 session on the config key.
//
// Build & run:  ./build/examples/config_store
#include <chrono>
#include <cstdio>
#include <thread>

#include "checker/atomicity.h"
#include "store/tcp_store.h"

using namespace fastreg;

namespace {

constexpr const char* k_key = "config";

}  // namespace

int main() {
  store::store_config scfg;
  scfg.shard_protocols = {"fast_swmr"};
  system_config& cfg = scfg.base;
  cfg.servers = 7;
  cfg.t_failures = 1;
  cfg.readers = 3;
  std::printf("config_store: S=7 replicas, t=1, %u app-node readers "
              "(fast bound allows R < %u)\n\n",
              cfg.R(), cfg.S() / cfg.t_failures - 2);

  store::tcp_store ts(scfg);
  ts.start();

  // The controller rolls out 5 config versions while app nodes poll.
  std::thread controller([&] {
    const auto se = ts.open_session(writer_id(0), 1);
    for (int v = 1; v <= 5; ++v) {
      const std::string conf =
          "{\"version\":" + std::to_string(v) + ",\"feature_x\":" +
          (v >= 3 ? "true" : "false") + "}";
      if (!se->put(k_key, conf) || !se->drain()) {
        std::printf("[controller] write v%d FAILED\n", v);
        return;
      }
      std::printf("[controller] published config v%d\n", v);
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
  });

  std::vector<std::thread> apps;
  for (std::uint32_t i = 0; i < cfg.R(); ++i) {
    apps.emplace_back([&, i] {
      const auto se = ts.open_session(reader_id(i), 1);
      for (int k = 0; k < 8; ++k) {
        const auto t0 = std::chrono::steady_clock::now();
        const bool ok = se->get(k_key) && se->drain();
        const auto us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        for (const auto& res : se->take_results()) {
          std::printf("[app-%u] config=%s  (%.0f us, %d round-trip)\n",
                      i + 1, res.val.empty() ? "(none)" : res.val.c_str(),
                      us, res.rounds);
        }
        if (!ok) std::printf("[app-%u] read %d FAILED\n", i + 1, k);
        std::this_thread::sleep_for(std::chrono::milliseconds(9));
      }
    });
  }

  controller.join();
  for (auto& t : apps) t.join();

  const auto hists = ts.gather();
  const auto& hist = hists.all().at(k_key);
  const auto verdict = checker::check_swmr_atomicity(hist);
  std::printf("\n%zu ops recorded; atomic: %s; all fast: %s\n", hist.size(),
              verdict.ok ? "yes" : "NO",
              checker::check_fastness(hist, 1, 1).ok ? "yes" : "NO");
  ts.stop();
  return verdict.ok ? 0 : 1;
}
