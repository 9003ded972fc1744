// byzantine_drill: the Figure 5 register under a live attack drill.
//
// A bank of S = 19 servers tolerates t = 3 failures of which b = 2 may be
// malicious (feasible: 19 > (R+2)t + (R+1)b = 12 + 6 for R = 2). We run
// each attack from the library while a writer and two readers operate,
// and watch the protocol's receivevalid + predicate machinery absorb it.
//
// Build & run:  ./build/examples/byzantine_drill
#include <cstdio>

#include "adversary/byzantine.h"
#include "checker/atomicity.h"
#include "crypto/sig.h"
#include "registers/fast_swmr.h"
#include "registers/registry.h"
#include "sim/world.h"

using namespace fastreg;
using namespace fastreg::adversary;

namespace {

void drill(const char* attack_name,
           const std::function<std::unique_ptr<automaton>(
               const protocol&, const system_config&, std::uint32_t)>&
               corrupt) {
  system_config cfg;
  cfg.servers = 19;
  cfg.t_failures = 3;
  cfg.b_malicious = 2;
  cfg.readers = 2;
  cfg.sigs = crypto::make_signature_scheme("oracle");

  const auto proto = make_protocol("fast_bft");
  sim::world w(cfg);
  w.install(*proto);
  // Attacks go in before any traffic: a wrapper's fresh inner server
  // holds exactly the state of the server it replaces.
  const std::uint32_t victims[2] = {3, 11};
  for (const auto v : victims) {
    w.replace_automaton(server_id(v), corrupt(*proto, cfg, v));
  }

  rng r(7);
  for (int round = 1; round <= 4; ++round) {
    w.invoke_write("reading-" + std::to_string(round));
    w.run_random(r);
    w.invoke_read(0);
    w.run_random(r);
    w.invoke_read(1);
    w.run_random(r);
  }
  std::uint64_t discarded = 0;
  for (std::uint32_t i = 0; i < cfg.R(); ++i) {
    discarded += dynamic_cast<fast_swmr_reader*>(w.get(reader_id(i)))
                     ->discarded_acks();
  }
  const bool atomic = checker::check_swmr_atomicity(w.hist()).ok;
  const auto last = w.last_read(1);
  std::printf("  %-12s final read=\"%s\"  atomic=%s  discarded acks=%llu\n",
              attack_name, last->val.c_str(), atomic ? "yes" : "NO",
              static_cast<unsigned long long>(discarded));
}

}  // namespace

int main() {
  std::printf("byzantine_drill: S=19, t=3, b=2, R=2 "
              "(19 > (R+2)t + (R+1)b = 18)\n");
  std::printf("two servers (s4, s12) run each attack while clients "
              "operate:\n\n");
  drill("stale", [](const protocol&, const system_config&, std::uint32_t v) {
    return std::make_unique<stale_server>(v);
  });
  drill("forge", [](const protocol&, const system_config&, std::uint32_t v) {
    return std::make_unique<forging_server>(v);
  });
  drill("mute", [](const protocol&, const system_config&, std::uint32_t v) {
    return std::make_unique<mute_server>(v);
  });
  drill("seen_liar",
        [](const protocol& p, const system_config& cfg, std::uint32_t v) {
          return std::make_unique<seen_liar_server>(p.make_server(cfg, v),
                                                    cfg.R());
        });
  drill("two_faced",
        [](const protocol& p, const system_config& cfg, std::uint32_t v) {
          return std::make_unique<two_faced_server>(
              p.make_server(cfg, v), p.make_server(cfg, v),
              std::unordered_set<process_id>{reader_id(0)});
        });
  std::printf(
      "\nwhy b matters: none of these can forge the writer's signature "
      "(Property 2), but withholding or replaying signed values is always "
      "possible -- that is why the bound pays (R+1) extra servers per "
      "malicious failure: S > (R+2)t + (R+1)b.\n");
  return 0;
}
