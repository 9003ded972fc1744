// E10 -- the Figure 5 validation paths under live attack: b malicious
// servers run each behaviour from the attack library while clients work.
// For every attack: liveness (all ops complete), safety (atomic), speed
// (1 round-trip), and how many provably-malicious acks readers discarded.
#include <cstdio>

#include "adversary/byzantine.h"
#include "benchutil/table.h"
#include "checker/atomicity.h"
#include "crypto/sig.h"
#include "registers/fast_swmr.h"
#include "registers/registry.h"
#include "sim/world.h"

using namespace fastreg;
using namespace fastreg::adversary;

namespace {

std::unique_ptr<automaton> make_attack(const std::string& kind,
                                       const protocol& proto,
                                       const system_config& cfg,
                                       std::uint32_t index) {
  if (kind == "stale") return std::make_unique<stale_server>(index);
  if (kind == "forge") return std::make_unique<forging_server>(index);
  if (kind == "mute") return std::make_unique<mute_server>(index);
  // The wrappers are installed before any traffic, so a fresh server
  // holds exactly the state of the one it replaces.
  const auto honest = [&] { return proto.make_server(cfg, index); };
  if (kind == "seen_liar") {
    return std::make_unique<seen_liar_server>(honest(), cfg.R());
  }
  if (kind == "equivocate") {
    return std::make_unique<equivocating_server>(honest(), index);
  }
  return std::make_unique<two_faced_server>(
      honest(), honest(), std::unordered_set<process_id>{reader_id(0)});
}

}  // namespace

int main() {
  std::printf("E10: fast BFT register under live byzantine attack "
              "(S=19, t=3, b=2, R=2; feasible: 19 > 12+6)\n\n");
  benchutil::table t({"attack", "ops", "all_complete", "atomic", "fast",
                      "discarded_acks"});
  for (const std::string kind : {"stale", "forge", "mute", "seen_liar",
                                 "equivocate", "two_faced"}) {
    system_config cfg;
    cfg.servers = 19;
    cfg.t_failures = 3;
    cfg.b_malicious = 2;
    cfg.readers = 2;
    cfg.sigs = crypto::make_signature_scheme("oracle");
    const auto proto = make_protocol("fast_bft");
    sim::world w(cfg);
    w.install(*proto);
    for (std::uint32_t i = 0; i < cfg.b(); ++i) {
      const std::uint32_t victim = 4 + 9 * i;
      w.replace_automaton(server_id(victim),
                          make_attack(kind, *proto, cfg, victim));
    }
    rng r(99);
    std::uint32_t writes = 0;
    std::vector<std::uint32_t> reads(cfg.R(), 0);
    for (;;) {
      bool more = false;
      if (writes < 10 && !w.writer(0)->write_in_progress()) {
        w.invoke_write("v" + std::to_string(++writes));
        more = true;
      }
      for (std::uint32_t i = 0; i < cfg.R(); ++i) {
        if (reads[i] < 10 && !w.reader(i)->read_in_progress()) {
          ++reads[i];
          w.invoke_read(i);
          more = true;
        }
      }
      if (!w.in_transit().empty()) {
        const auto& ms = w.in_transit();
        w.deliver(ms[r.below(ms.size())].id);
        more = true;
      }
      if (!more) break;
    }
    bool all_complete = true;
    for (const auto& op : w.hist().ops()) {
      all_complete &= op.response_time.has_value();
    }
    std::uint64_t discarded = 0;
    for (std::uint32_t i = 0; i < cfg.R(); ++i) {
      discarded += dynamic_cast<fast_swmr_reader*>(w.get(reader_id(i)))
                       ->discarded_acks();
    }
    t.add_row({kind, std::to_string(w.hist().ops().size()),
               all_complete ? "yes" : "NO",
               checker::check_swmr_atomicity(w.hist()).ok ? "yes" : "NO",
               checker::check_fastness(w.hist(), 1, 1).ok ? "yes" : "NO",
               std::to_string(discarded)});
  }
  t.print();
  std::printf("\nexpected: every attack masked (all yes). 'discarded_acks' "
              "shows receivevalid at work; attacks that stay protocol-"
              "plausible (seen_liar, two_faced) are absorbed by the "
              "S - at - (a-1)b predicate margin instead.\n");
  return 0;
}
