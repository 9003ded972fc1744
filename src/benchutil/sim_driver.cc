#include "benchutil/sim_driver.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "store/async_client.h"

namespace fastreg::benchutil {

void drive_sim(store::sim_store& s, rng& r, std::vector<sim_client> clients,
               sim::delay_model* delays,
               const std::function<bool(std::uint64_t invoked)>& control) {
  // One session per client for the whole run. Its world step hook takes
  // completions at the step that delivers them, so in_flight() is current
  // between steps.
  store::sim_frontend fe(s, r);
  std::vector<std::unique_ptr<store::async_session>> sessions;
  for (const auto& c : clients) {
    FASTREG_EXPECTS(c.depth >= 1);
    sessions.push_back(fe.open_session(c.client, c.depth));
  }

  std::uint64_t invoked = 0, guard = 0;
  for (;;) {
    FASTREG_CHECK(++guard < 200'000'000);
    const bool busy = control && control(invoked);
    bool issued = false;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      auto& c = clients[i];
      auto& se = *sessions[i];
      (void)se.take_results();
      if (c.quota == 0 || se.in_flight() != 0) continue;
      const auto k = std::min(c.depth, c.quota);
      auto ops = c.next(k);
      FASTREG_CHECK(ops.size() == k);
      for (auto& op : ops) {
        const auto st = op.is_put ? se.try_put(op.key, std::move(op.val))
                                  : se.try_get(op.key);
        FASTREG_CHECK(st == store::submit_status::submitted);
      }
      se.pump();  // one invocation step for the whole batch
      c.quota -= k;
      invoked += k;
      issued = true;
    }
    if (s.world().in_transit().empty()) {
      if (issued || busy) continue;
      break;  // drained: quotas spent (or nothing can ever move again)
    }
    if (delays != nullptr) {
      s.run_timed(r, *delays, /*max_steps=*/1);
    } else {
      s.run_random(r, /*max_steps=*/1);
    }
  }
}

}  // namespace fastreg::benchutil
