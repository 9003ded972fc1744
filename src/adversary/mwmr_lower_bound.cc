#include "adversary/mwmr_lower_bound.h"

#include "common/check.h"
#include "sim/world.h"

namespace fastreg::adversary {
namespace {

using sim::envelope;
using sim::world;

/// Builds run^i: two writes (w2 writes "2", w1 writes "1") where 0-based
/// servers j < i-1 process w1's message before w2's and the rest process
/// w2's first; then r1 performs a skip-free read. Returns the world (for
/// extension) and r1's value.
struct run_state {
  world w;
  value_t r1_value;
};

run_state make_run(const protocol& proto, const system_config& cfg,
                   std::uint32_t i) {
  const std::uint32_t S = cfg.S();
  world w(cfg);
  w.install(proto);

  const process_id w1 = writer_id(0);
  const process_id w2 = writer_id(1);

  auto deliver_write_to = [&](const process_id& writer, std::uint32_t srv) {
    w.deliver_matching([&](const envelope& e) {
      return e.from == writer && e.to == server_id(srv) &&
             e.msg.type == msg_type::write_req;
    });
  };
  auto deliver_client_acks = [&](const process_id& client) {
    w.deliver_matching([&](const envelope& e) { return e.to == client; });
  };

  if (i == 1) {
    // Sequential: write(2) by w2 completes, then write(1) by w1 completes.
    w.invoke_write(1, "2");
    for (std::uint32_t j = 0; j < S; ++j) deliver_write_to(w2, j);
    deliver_client_acks(w2);
    FASTREG_CHECK(!w.writer(1)->write_in_progress());
    w.invoke_write(0, "1");
    for (std::uint32_t j = 0; j < S; ++j) deliver_write_to(w1, j);
    deliver_client_acks(w1);
    FASTREG_CHECK(!w.writer(0)->write_in_progress());
  } else {
    // Concurrent writes; per-server arrival order encodes the run index.
    w.invoke_write(1, "2");
    w.invoke_write(0, "1");
    for (std::uint32_t j = 0; j < S; ++j) {
      if (j < i - 1) {
        deliver_write_to(w1, j);
        deliver_write_to(w2, j);
      } else {
        deliver_write_to(w2, j);
        deliver_write_to(w1, j);
      }
    }
    deliver_client_acks(w2);
    deliver_client_acks(w1);
    FASTREG_CHECK(!w.writer(0)->write_in_progress());
    FASTREG_CHECK(!w.writer(1)->write_in_progress());
  }

  // Skip-free read by r1.
  w.invoke_read(0);
  w.deliver_matching([&](const envelope& e) {
    return e.from == reader_id(0) && e.to.is_server();
  });
  deliver_client_acks(reader_id(0));
  const auto res = w.last_read(0);
  FASTREG_CHECK(res.has_value());
  return run_state{std::move(w), res->val};
}

/// Extends a finished run with a read by r2 that skips server `skip`
/// (0-based) and returns its value.
value_t extend_with_r2(world& w, std::uint32_t skip) {
  w.invoke_read(1);
  w.deliver_matching([&](const envelope& e) {
    return e.from == reader_id(1) && e.to.is_server() &&
           e.to.index != skip;
  });
  w.deliver_matching(
      [&](const envelope& e) { return e.to == reader_id(1); });
  const auto res = w.last_read(1);
  FASTREG_CHECK(res.has_value());
  return res->val;
}

}  // namespace

mwmr_report run_mwmr_lower_bound(const protocol& proto, std::uint32_t S) {
  FASTREG_EXPECTS(proto.read_rounds() == 1 && proto.write_rounds() == 1);
  FASTREG_EXPECTS(S >= 2);

  system_config cfg;
  cfg.servers = S;
  cfg.t_failures = 1;
  cfg.readers = 2;
  cfg.writers = 2;

  mwmr_report rep;
  rep.w1_value = "1";
  rep.w2_value = "2";

  for (std::uint32_t i = 1; i <= S + 1; ++i) {
    auto run = make_run(proto, cfg, i);
    rep.series.push_back(run.r1_value);
    rep.trace.push_back("run^" + std::to_string(i) + ": r1 read \"" +
                        run.r1_value + "\"");
  }

  // P1 at the endpoints: run^1 is w2;w1;read (expect "1"), run^{S+1} is
  // indistinguishable from w1;w2;read (expect "2").
  rep.p1_ok_run1 = rep.series.front() == rep.w1_value;
  rep.p1_ok_runlast = rep.series.back() == rep.w2_value;

  // Flip point: consecutive runs where the answer changes.
  for (std::uint32_t i = 1; i <= S; ++i) {
    if (rep.series[i - 1] == rep.w1_value && rep.series[i] == rep.w2_value) {
      rep.flip_index = i;
      break;
    }
  }

  if (rep.flip_index) {
    const std::uint32_t i1 = *rep.flip_index;
    auto run_p = make_run(proto, cfg, i1);
    rep.r2_run_prime = extend_with_r2(run_p.w, i1 - 1);
    auto run_pp = make_run(proto, cfg, i1 + 1);
    rep.r2_run_doubleprime = extend_with_r2(run_pp.w, i1 - 1);
    rep.trace.push_back("run' : r2 (skipping s" + std::to_string(i1) +
                        ") read \"" + *rep.r2_run_prime + "\"");
    rep.trace.push_back("run'': r2 (skipping s" + std::to_string(i1) +
                        ") read \"" + *rep.r2_run_doubleprime + "\"");
    // In run', P2 demands r2 == r1 == w1_value; in run'', r2 == w2_value.
    // Since r2 cannot distinguish the runs, one of the two must fail.
    rep.p2_violation = *rep.r2_run_prime != rep.series[i1 - 1] ||
                       *rep.r2_run_doubleprime != rep.series[i1];
  }

  rep.violation = !rep.p1_ok_run1 || !rep.p1_ok_runlast || rep.p2_violation;
  return rep;
}

}  // namespace fastreg::adversary
