// One construction for both SWMR lower bounds: Section 6.2's schedule over
// T-blocks and B-blocks. At b = 0 every B-block is empty and the T-blocks
// are Section 5's B_1..B_{R'+2}, so the same code runs Proposition 5.
#include "adversary/bft_lower_bound.h"
#include "adversary/swmr_lower_bound.h"

#include <memory>
#include <unordered_set>

#include "adversary/blocks.h"
#include "adversary/byzantine.h"
#include "checker/atomicity.h"
#include "common/check.h"
#include "sim/world.h"

namespace fastreg::adversary {

std::string construction_report::summary() const {
  if (!applicable) return "not applicable: " + reason;
  std::string out = "R'=" + std::to_string(readers_used) + "; chain=[";
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"" + chain[i] + "\"";
  }
  out += "]; pr^A read=\"" + (read_pr_a ? *read_pr_a : "?") + "\"";
  out += "; pr^C read=\"" + (read_pr_c ? *read_pr_c : "?") + "\"";
  out += violation ? "; VIOLATION (" + checker_error + ")"
                   : "; no violation";
  return out;
}

namespace {

using sim::envelope;
using sim::world;

/// Delivers `client`'s outstanding request messages (read/write) to every
/// server in the allowed set.
void deliver_requests(world& w, const process_id& client,
                      const std::vector<bool>& allowed) {
  w.deliver_matching([&](const envelope& e) {
    return e.from == client && e.to.is_server() && allowed[e.to.index] &&
           (e.msg().type == msg_type::read_req ||
            e.msg().type == msg_type::write_req);
  });
}

/// Delivers server acks addressed to `client` originating in the allowed
/// server set.
void deliver_acks(world& w, const process_id& client,
                  const std::vector<bool>& allowed) {
  w.deliver_matching([&](const envelope& e) {
    return e.to == client && e.from.is_server() && allowed[e.from.index];
  });
}

/// The value of reader i's read, which the schedule has just completed.
value_t completed_read(world& w, std::uint32_t reader_index) {
  const auto res = w.last_read(reader_index);
  FASTREG_CHECK(res.has_value());
  return res->val;
}

struct schedule_outcome {
  value_t read_pr_a;
  value_t read_pr_c;
  checker::check_result check{};
};

/// Executes the pr^C schedule (pr^D when with_write = false; then B_{R'+1}
/// stays honest) and returns what r1 saw.
schedule_outcome run_schedule(const protocol& proto, const system_config& cfg,
                              const bft_partition& bp, bool with_write,
                              const value_t& v1) {
  const std::uint32_t S = cfg.S();
  const std::uint32_t rp = bp.readers_used;  // R'
  const auto& part = bp.part;

  world w(cfg);
  w.install(proto);
  schedule_outcome out;

  if (with_write) {
    // B_{R'+1} turns two-faced toward r1 at the moment the write arrives.
    // Nothing has reached its servers yet, so both faces start as fresh
    // automata, equal to the installed servers.
    for (const std::uint32_t s : part.block(bp.B(rp + 1))) {
      w.replace_automaton(
          server_id(s),
          std::make_unique<two_faced_server>(
              proto.make_server(w.config(), s),
              proto.make_server(w.config(), s),
              std::unordered_set<process_id>{reader_id(0)}));
    }
    // wr_{R'+1}: the write reaches T_{R'+1} and B_{R'+1} only; its acks
    // stay in transit, so the write never completes in this run family.
    w.invoke_write(v1);
    deliver_requests(w, writer_id(0),
                     part.membership({bp.T(rp + 1), bp.B(rp + 1)}, S));
  }

  // Delta-pr_{R'} reads:
  //   r_h (h < R') skips {T_j : h<=j<=R'} and {B_j : h+1<=j<=R'};
  //   r_{R'} skips T_{R'} only.
  for (std::uint32_t h = 1; h <= rp; ++h) {
    std::vector<std::size_t> allowed_blocks;
    if (h < rp) {
      for (std::size_t j = 1; j < h; ++j) allowed_blocks.push_back(bp.T(j));
      allowed_blocks.push_back(bp.T(rp + 1));
      allowed_blocks.push_back(bp.T(rp + 2));
      for (std::size_t j = 1; j <= h; ++j) allowed_blocks.push_back(bp.B(j));
      allowed_blocks.push_back(bp.B(rp + 1));
    } else {
      for (std::size_t j = 1; j <= rp + 2; ++j) {
        if (j != rp) allowed_blocks.push_back(bp.T(j));
      }
      for (std::size_t j = 1; j <= rp + 1; ++j) {
        allowed_blocks.push_back(bp.B(j));
      }
    }
    w.invoke_read(h - 1);
    deliver_requests(w, reader_id(h - 1), part.membership(allowed_blocks, S));
    if (h == rp) {
      // The last read of the chain completes; indistinguishability forces
      // it to return v1. The adversary schedules acks from the written
      // blocks first (a reader that waits for only S - t replies might
      // otherwise complete before hearing any evidence of the write).
      deliver_acks(w, reader_id(h - 1),
                   part.membership({bp.T(rp + 1), bp.B(rp + 1)}, S));
      deliver_acks(w, reader_id(h - 1), std::vector<bool>(S, true));
      (void)completed_read(w, h - 1);
    }
  }

  // pr^A: r1's first read completes without ever hearing from T_{R'+1}
  // (the block that got the write); from B_{R'+1} it gets the shadow
  // (write-less) answers.
  deliver_acks(w, reader_id(0),
               part.membership({bp.T(rp + 2), bp.B(1), bp.B(rp + 1)}, S));
  std::vector<std::size_t> step2_blocks;
  for (std::size_t j = 1; j <= rp; ++j) step2_blocks.push_back(bp.T(j));
  for (std::size_t j = 2; j <= rp; ++j) step2_blocks.push_back(bp.B(j));
  deliver_requests(w, reader_id(0), part.membership(step2_blocks, S));
  deliver_acks(w, reader_id(0), part.membership(step2_blocks, S));
  out.read_pr_a = completed_read(w, 0);

  // pr^C: r1 reads once more, skipping T_{R'+1}. This read *succeeds*
  // r_{R'}'s read.
  w.invoke_read(0);
  std::vector<std::size_t> all_but_t_rp1;
  for (std::size_t j = 0; j < part.block_count(); ++j) {
    if (j != bp.T(rp + 1)) all_but_t_rp1.push_back(j);
  }
  deliver_requests(w, reader_id(0), part.membership(all_but_t_rp1, S));
  deliver_acks(w, reader_id(0), part.membership(all_but_t_rp1, S));
  out.read_pr_c = completed_read(w, 0);

  out.check = checker::check_swmr_atomicity(w.hist());
  return out;
}

/// Executes Delta-pr_i in a fresh world and returns r_i's value: the write
/// reaches T_{i+1}..T_{R'+1} and B_{i+1}..B_{R'+1}; reads r_1..r_i follow
/// with the Section 6.2 skip sets.
value_t run_chain_step(const protocol& proto, const system_config& cfg,
                       const bft_partition& bp, std::uint32_t i,
                       const value_t& v1) {
  const std::uint32_t S = cfg.S();
  const std::uint32_t rp = bp.readers_used;
  const auto& part = bp.part;

  world w(cfg);
  w.install(proto);

  w.invoke_write(v1);
  std::vector<std::size_t> write_blocks;
  for (std::size_t j = i + 1; j <= rp + 1; ++j) {
    write_blocks.push_back(bp.T(j));
    write_blocks.push_back(bp.B(j));
  }
  deliver_requests(w, writer_id(0), part.membership(write_blocks, S));

  for (std::uint32_t h = 1; h <= i; ++h) {
    std::vector<std::size_t> allowed_blocks;
    if (h < i) {
      // skips {T_j : h<=j<=i} and {B_j : h+1<=j<=i}
      for (std::size_t j = 1; j < h; ++j) allowed_blocks.push_back(bp.T(j));
      for (std::size_t j = i + 1; j <= rp + 2; ++j) {
        allowed_blocks.push_back(bp.T(j));
      }
      for (std::size_t j = 1; j <= h; ++j) allowed_blocks.push_back(bp.B(j));
      for (std::size_t j = i + 1; j <= rp + 1; ++j) {
        allowed_blocks.push_back(bp.B(j));
      }
    } else {
      // r_i skips T_i only.
      for (std::size_t j = 1; j <= rp + 2; ++j) {
        if (j != i) allowed_blocks.push_back(bp.T(j));
      }
      for (std::size_t j = 1; j <= rp + 1; ++j) {
        allowed_blocks.push_back(bp.B(j));
      }
    }
    w.invoke_read(h - 1);
    deliver_requests(w, reader_id(h - 1), part.membership(allowed_blocks, S));
    if (h == i) {
      // Written blocks' acks first (see run_schedule).
      deliver_acks(w, reader_id(h - 1), part.membership(write_blocks, S));
      deliver_acks(w, reader_id(h - 1), std::vector<bool>(S, true));
    }
  }
  return completed_read(w, i - 1);
}

/// The construction over the partition with at most b servers per
/// B-block. At b = 0 it reports in Section 5's terms: its blocks are
/// B_1..B_{R'+2} (the empty B-blocks are not listed).
construction_report run_construction(const protocol& proto,
                                     const system_config& cfg,
                                     std::uint32_t b) {
  construction_report rep;
  rep.written_value = "v1";
  FASTREG_EXPECTS(proto.read_rounds() == 1 && proto.write_rounds() == 1);

  const auto bp = make_bft_partition(cfg.S(), cfg.t(), b, cfg.R());
  if (!bp) {
    rep.applicable = false;
    rep.reason = std::string("no block partition exists: S > (R+2)t") +
                 (b == 0 ? "" : " + (R+1)b") +
                 " for all R' <= R (feasible region, " + cfg.describe() +
                 ")";
    return rep;
  }
  rep.applicable = true;
  rep.readers_used = bp->readers_used;
  {
    const std::string t_name = b == 0 ? "B" : "T";
    std::vector<std::string> names;
    for (std::uint32_t j = 1; j <= bp->readers_used + 2; ++j) {
      names.push_back(t_name + std::to_string(j));
    }
    for (std::uint32_t j = 1; b != 0 && j <= bp->readers_used + 1; ++j) {
      names.push_back("B" + std::to_string(j));
    }
    rep.partition = bp->part.describe(names);
  }
  rep.trace.push_back("partition: " + rep.partition);

  // The Delta-pr_i chain, each in a fresh world: the values the proof's
  // induction forces to v1.
  for (std::uint32_t i = 1; i <= bp->readers_used; ++i) {
    rep.chain.push_back(run_chain_step(proto, cfg, *bp, i, rep.written_value));
    rep.trace.push_back("Delta-pr_" + std::to_string(i) + ": r" +
                        std::to_string(i) + " read \"" + rep.chain.back() +
                        "\"");
  }

  // pr^C (with the write) and pr^D (without): r_1 must not distinguish.
  const auto pr_c =
      run_schedule(proto, cfg, *bp, /*with_write=*/true, rep.written_value);
  const auto pr_d =
      run_schedule(proto, cfg, *bp, /*with_write=*/false, rep.written_value);

  rep.read_pr_a = pr_c.read_pr_a;
  rep.read_pr_c = pr_c.read_pr_c;
  rep.indistinguishability_ok = pr_c.read_pr_a == pr_d.read_pr_a &&
                                pr_c.read_pr_c == pr_d.read_pr_c;
  rep.trace.push_back("pr^A: r1 read \"" + pr_c.read_pr_a +
                      "\" (pr^B sibling: \"" + pr_d.read_pr_a + "\")");
  rep.trace.push_back("pr^C: r1 read \"" + pr_c.read_pr_c +
                      "\" (pr^D sibling: \"" + pr_d.read_pr_c + "\")");

  rep.violation = !pr_c.check.ok;
  rep.checker_error = pr_c.check.error;
  rep.trace.push_back(rep.violation ? "checker: VIOLATION: " + pr_c.check.error
                                    : "checker: history is atomic");
  return rep;
}

}  // namespace

construction_report run_swmr_lower_bound(const protocol& proto,
                                         const system_config& cfg) {
  return run_construction(proto, cfg, 0);
}

construction_report run_bft_lower_bound(const protocol& proto,
                                        const system_config& cfg) {
  return run_construction(proto, cfg, cfg.b());
}

}  // namespace fastreg::adversary
