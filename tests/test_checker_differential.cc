// Differential testing of the polynomial MWMR linearizability checker
// against the exponential Wing&Gong oracle: thousands of randomized small
// multi-writer histories (where the oracle is still feasible) on which the
// two verdicts must agree exactly, plus hand-built non-linearizable
// mutants both must reject with a useful error message. The SWMR
// checkers are tested the same way against their quadratic first
// version, kept here as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checker/atomicity.h"
#include "checker/history.h"
#include "common/rng.h"

namespace fastreg::checker {
namespace {

// ------------------------------------------------ random history maker --

/// Generates a well-formed random history: up to `max_ops` operations
/// from 3 writers and 3 readers, each client's ops sequential, intervals
/// drawn in a small time range so concurrency is dense. Reads return a
/// value drawn from the full written set (past or FUTURE writes, so both
/// legal and illegal returns are produced), bottom, or -- rarely -- a
/// never-written value. A client's last op may be left incomplete.
history random_history(rng& r, std::uint32_t max_ops) {
  history h;
  const std::uint32_t n_ops = 1 + static_cast<std::uint32_t>(
                                      r.below(max_ops));
  struct plan_op {
    process_id client;
    bool is_write;
    std::uint64_t inv, resp;
    bool complete;
  };
  std::vector<plan_op> plan;
  std::vector<std::uint64_t> next_free(6, 0);  // 3 writers then 3 readers
  std::vector<bool> parked(6, false);  // incomplete op: client's last
  std::uint32_t seq = 0;
  std::vector<value_t> written;
  for (std::uint32_t i = 0; i < n_ops; ++i) {
    std::uint32_t c = static_cast<std::uint32_t>(r.below(6));
    for (std::uint32_t tries = 0; parked[c] && tries < 6; ++tries) {
      c = static_cast<std::uint32_t>(r.below(6));
    }
    if (parked[c]) continue;
    plan_op op;
    op.client = c < 3 ? writer_id(c) : reader_id(c - 3);
    op.is_write = r.chance(1, 2);
    op.inv = next_free[c] + r.below(8);
    op.resp = op.inv + r.below(10);
    op.complete = !r.chance(1, 6);
    if (!op.complete) {
      parked[c] = true;
    } else {
      next_free[c] = op.resp + 1;
    }
    plan.push_back(op);
    if (op.is_write) {
      written.push_back("v" + std::to_string(++seq));
    }
  }
  // Issue begin/complete in a well-formed order (begin sorted by invoke
  // time; the history builder only checks per-client sequencing, which
  // next_free already guarantees).
  std::vector<std::size_t> order(plan.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return plan[a].inv < plan[b].inv;
  });
  std::uint32_t next_written = 0;
  for (const auto i : order) {
    const auto& op = plan[i];
    if (op.is_write) {
      const auto idx = h.begin_op(op.client, true, op.inv,
                                  written[next_written++]);
      if (op.complete) h.complete_write(idx, op.resp, 1);
    } else {
      const auto idx = h.begin_op(op.client, false, op.inv);
      if (op.complete) {
        value_t v = k_bottom_value;
        const auto dice = r.below(10);
        if (dice == 0) {
          v = "phantom";  // never written: both checkers must reject
        } else if (dice <= 6 && !written.empty()) {
          v = written[r.below(written.size())];
        }
        h.complete_read(idx, op.resp, 0, 0, v, 1);
      }
    }
  }
  return h;
}

TEST(CheckerDifferential, PolynomialAgreesWithOracleOnRandomHistories) {
  std::uint64_t agreed_ok = 0, agreed_fail = 0;
  for (std::uint64_t trial = 0; trial < 6000; ++trial) {
    rng r(0x5eed0000 + trial);
    const history h = random_history(r, 12);
    const auto fast = check_mwmr_linearizable(h);
    const auto oracle = check_linearizable(h);
    ASSERT_EQ(fast.ok, oracle.ok)
        << "divergence on trial " << trial << ":\npolynomial: "
        << (fast.ok ? "ok" : fast.error) << "\noracle: "
        << (oracle.ok ? "ok" : oracle.error) << "\n"
        << h.dump();
    (fast.ok ? agreed_ok : agreed_fail) += 1;
  }
  // The generator must actually exercise both verdicts.
  EXPECT_GT(agreed_ok, 500u);
  EXPECT_GT(agreed_fail, 500u);
}

TEST(CheckerDifferential, DuplicateValuesRejectedByBothAsInput) {
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    rng r(0xd0b0 + trial);
    history h;
    // Two writers write the same value concurrently; whatever else the
    // generator would do, both checkers must refuse the input rather
    // than return a verdict.
    const auto w1 = h.begin_op(writer_id(0), true, 1 + r.below(4), "dup");
    h.complete_write(w1, 10, 1);
    const auto w2 = h.begin_op(writer_id(1), true, 1 + r.below(4), "dup");
    h.complete_write(w2, 10, 1);
    const auto fast = check_mwmr_linearizable(h);
    const auto oracle = check_linearizable(h);
    EXPECT_FALSE(fast.ok);
    EXPECT_FALSE(oracle.ok);
    EXPECT_NE(fast.error.find("unique"), std::string::npos) << fast.error;
    EXPECT_NE(oracle.error.find("unique"), std::string::npos);
  }
}

// ------------------------------------------- SWMR checker vs. oracle --

/// check_swmr as first written: record copies and, for condition (2), a
/// scan of every write for every read. The oracle for the binary-search
/// version in src/checker/atomicity.cc, which must give the same verdict
/// and the same message.
check_result oracle_check_swmr(const history& h, bool require_condition4) {
  const auto fail = [](std::string msg) {
    return check_result{false, std::move(msg)};
  };
  std::vector<op_record> writes = h.all_writes();
  for (const auto& w : writes) {
    if (w.client != writer_id(0)) {
      return fail("SWMR checker: writes from more than one writer");
    }
  }
  std::sort(writes.begin(), writes.end(),
            [](const op_record& a, const op_record& b) {
              return a.invoke_time < b.invoke_time;
            });
  for (std::size_t i = 0; i + 1 < writes.size(); ++i) {
    if (!writes[i].response_time) {
      return fail("SWMR checker: incomplete write is not the last write");
    }
    if (*writes[i].response_time > writes[i + 1].invoke_time) {
      return fail("SWMR checker: overlapping writes in a single-writer run");
    }
  }
  std::map<value_t, std::size_t> value_index;
  value_index[k_bottom_value] = 0;
  for (std::size_t k = 0; k < writes.size(); ++k) {
    if (!value_index.emplace(writes[k].val, k + 1).second) {
      return fail("written values are not unique: \"" + writes[k].val +
                  "\"");
    }
  }
  const std::vector<op_record> reads = h.completed_reads();
  struct annotated_read {
    const op_record* op;
    std::size_t l;
  };
  std::vector<annotated_read> ann;
  for (const auto& rd : reads) {
    const auto it = value_index.find(rd.val);
    if (it == value_index.end()) {
      return fail("condition 1 violated: read by " + to_string(rd.client) +
                  " returned unwritten value \"" + rd.val + "\"");
    }
    ann.push_back({&rd, it->second});
  }
  for (const auto& [rd, l] : ann) {
    std::size_t k_min = 0;
    for (std::size_t k = 0; k < writes.size(); ++k) {
      if (writes[k].response_time &&
          *writes[k].response_time < rd->invoke_time) {
        k_min = k + 1;
      }
    }
    if (l < k_min) {
      return fail("condition 2 violated: read by " + to_string(rd->client) +
                  " returned val_" + std::to_string(l) + " (\"" + rd->val +
                  "\") after write_" + std::to_string(k_min) + " completed");
    }
    if (l >= 1 && writes[l - 1].invoke_time >= *rd->response_time) {
      return fail("condition 3 violated: read returned val_" +
                  std::to_string(l) + " before write_" + std::to_string(l) +
                  " was invoked");
    }
  }
  if (require_condition4) {
    std::vector<annotated_read> by_invoke = ann;
    std::sort(by_invoke.begin(), by_invoke.end(),
              [](const annotated_read& a, const annotated_read& b) {
                return a.op->invoke_time < b.op->invoke_time;
              });
    std::vector<annotated_read> by_response = ann;
    std::sort(by_response.begin(), by_response.end(),
              [](const annotated_read& a, const annotated_read& b) {
                return *a.op->response_time < *b.op->response_time;
              });
    std::size_t max_l = 0;
    const op_record* max_op = nullptr;
    std::size_t next_resp = 0;
    for (const auto& rd : by_invoke) {
      while (next_resp < by_response.size() &&
             *by_response[next_resp].op->response_time <
                 rd.op->invoke_time) {
        if (by_response[next_resp].l > max_l) {
          max_l = by_response[next_resp].l;
          max_op = by_response[next_resp].op;
        }
        ++next_resp;
      }
      if (rd.l < max_l) {
        return fail("condition 4 violated (new/old inversion): read by " +
                    to_string(rd.op->client) + " returned val_" +
                    std::to_string(rd.l) + " after a read by " +
                    to_string(max_op->client) + " returned val_" +
                    std::to_string(max_l));
      }
    }
  }
  return {};
}

/// A random single-writer history: writer 0's sequential writes of unique
/// values, then three readers' sequential reads over the same time span.
/// Most reads return a value conditions (2) and (3) allow; the rest
/// return an older one, a future one, bottom or a never-written value, so
/// every condition is broken somewhere. A few histories break the
/// checker's input rules instead: a second writer, overlapping writes or
/// a repeated value. A client's last op may stay incomplete, and half of
/// the histories are sorted by invocation time.
history random_swmr_history(rng& r) {
  struct plan_op {
    process_id client;
    std::uint64_t inv, resp;
    bool complete;
    value_t val;
  };
  std::vector<plan_op> writes;
  std::uint64_t t = 0;
  const std::uint64_t n_writes = r.below(9);
  for (std::uint64_t k = 0; k < n_writes; ++k) {
    plan_op w{writer_id(0), t + r.below(4), 0, true,
              "v" + std::to_string(k + 1)};
    if (k > 0 && writes.back().resp > writes.back().inv &&
        r.chance(1, 30)) {
      w.inv = writes.back().resp - 1;  // overlaps the last write
    }
    w.resp = w.inv + r.below(6);
    if (k + 1 == n_writes && r.chance(1, 5)) w.complete = false;
    if (k > 0 && r.chance(1, 40)) w.val = writes[r.below(k)].val;
    t = w.resp + r.below(2);
    writes.push_back(std::move(w));
  }
  if (r.chance(1, 40)) {
    writes.push_back({writer_id(1), r.below(t + 1), t + 2, true, "w1"});
  }

  history h;
  for (const auto& w : writes) {
    const auto i = h.begin_op(w.client, true, w.inv, w.val);
    if (w.complete) h.complete_write(i, w.resp, 1);
  }
  const auto val_of = [&](std::size_t l) {
    return l == 0 ? k_bottom_value : writes[l - 1].val;
  };
  for (std::uint32_t reader = 0; reader < 3; ++reader) {
    std::uint64_t rt = r.below(4);
    const std::uint64_t n_reads = r.below(5);
    for (std::uint64_t j = 0; j < n_reads; ++j) {
      const std::uint64_t inv = rt + r.below(6);
      const std::uint64_t resp = inv + r.below(8);
      rt = resp + 1;
      const auto i = h.begin_op(reader_id(reader), false, inv);
      if (j + 1 == n_reads && r.chance(1, 6)) break;  // left incomplete
      // Writes (of writer 0, in order) completed before the read began,
      // and invoked before it returned: conditions (2) and (3) allow
      // exactly the values val_k_min .. val_k_max.
      std::size_t k_min = 0, k_max = 0;
      for (std::size_t k = 0; k < writes.size(); ++k) {
        if (writes[k].complete && writes[k].resp < inv) k_min = k + 1;
        if (writes[k].inv < resp) k_max = k + 1;
      }
      k_min = std::min(k_min, k_max);
      value_t v;
      const auto dice = r.below(20);
      if (dice == 0) {
        v = "phantom";
      } else if (dice <= 2) {
        v = val_of(r.below(writes.size() + 1));  // anything written
      } else {
        v = val_of(k_min + r.below(k_max - k_min + 1));
      }
      h.complete_read(i, resp, 0, 0, v, 1);
    }
  }
  if (r.chance(1, 2)) h.sort_by_invoke_time();
  return h;
}

TEST(CheckerDifferential, SwmrCheckersAgreeWithQuadraticOracle) {
  std::map<std::string, std::uint64_t> verdicts;
  for (std::uint64_t trial = 0; trial < 20000; ++trial) {
    rng r(0x5a4e0000 + trial);
    const history h = random_swmr_history(r);
    for (const bool atomic : {true, false}) {
      const auto got =
          atomic ? check_swmr_atomicity(h) : check_swmr_regular(h);
      const auto want = oracle_check_swmr(h, atomic);
      ASSERT_EQ(got.ok, want.ok)
          << "trial " << trial << (atomic ? " atomic" : " regular")
          << ":\nchecker: " << (got.ok ? "ok" : got.error)
          << "\noracle: " << (want.ok ? "ok" : want.error) << "\n"
          << h.dump();
      ASSERT_EQ(got.error, want.error) << "trial " << trial << "\n"
                                       << h.dump();
      if (atomic) {
        ++verdicts[got.ok ? "ok" : got.error.substr(0, got.error.find(':'))];
      }
    }
  }
  // The generator must produce valid histories and break every condition
  // and input rule.
  for (const char* v :
       {"ok", "condition 1 violated", "condition 2 violated",
        "condition 3 violated", "condition 4 violated (new/old inversion)",
        "SWMR checker", "written values are not unique"}) {
    EXPECT_GE(verdicts[v], 50u) << v;
  }
}

// ------------------------------------------------- hand-built mutants --

/// Builder mirroring test_checker.cc's, for multi-writer literals.
struct hb {
  history h;
  void write(std::uint32_t wi, std::uint64_t inv, std::uint64_t resp,
             value_t v) {
    const auto i = h.begin_op(writer_id(wi), true, inv, std::move(v));
    h.complete_write(i, resp, 1);
  }
  void read(std::uint32_t ri, std::uint64_t inv, std::uint64_t resp,
            value_t v) {
    const auto i = h.begin_op(reader_id(ri), false, inv);
    h.complete_read(i, resp, 0, 0, std::move(v), 1);
  }
};

void expect_both_reject(const history& h, const std::string& what) {
  const auto fast = check_mwmr_linearizable(h);
  const auto oracle = check_linearizable(h);
  EXPECT_FALSE(fast.ok) << what << ": polynomial checker accepted\n"
                        << h.dump();
  EXPECT_FALSE(oracle.ok) << what << ": oracle accepted\n" << h.dump();
  // A useful message: non-empty and naming at least one involved value.
  EXPECT_FALSE(fast.error.empty());
  EXPECT_FALSE(oracle.error.empty());
}

TEST(CheckerMutants, NewOldInversion) {
  // "old" is completely written; "new" is concurrent with both reads.
  // The reads are sequential and see new then old -- the classic
  // inversion: reader 0 observing "new" pins its write before reader 0,
  // so reader 1, strictly later, may not travel back to "old".
  hb b;
  b.write(0, 1, 2, "old");
  b.write(1, 3, 100, "new");
  b.read(0, 10, 11, "new");
  b.read(1, 20, 21, "old");
  expect_both_reject(b.h, "new/old inversion");
  const auto res = check_mwmr_linearizable(b.h);
  EXPECT_NE(res.error.find("old"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("new"), std::string::npos) << res.error;
}

TEST(CheckerMutants, LostUpdate) {
  // write_2 strictly follows write_1, yet a later read returns write_1's
  // value: write_2's update was lost.
  hb b;
  b.write(0, 1, 2, "first");
  b.write(1, 3, 4, "second");
  b.read(0, 5, 6, "first");
  expect_both_reject(b.h, "lost update");
  const auto res = check_mwmr_linearizable(b.h);
  EXPECT_NE(res.error.find("second"), std::string::npos) << res.error;
}

TEST(CheckerMutants, CycleThroughThreeWriters) {
  // Three concurrent writes a, b, c; three readers observe a-before-b,
  // b-before-c and c-before-a respectively. Every pairwise order is
  // individually fine; only the three-cluster cycle is contradictory --
  // the case that separates a real linearizability check from pairwise
  // read-ordering heuristics (and exercises the checker's theorem that
  // any cluster cycle contains a 2-cycle).
  hb b;
  b.write(0, 1, 100, "a");
  b.write(1, 1, 100, "b");
  b.write(2, 1, 100, "c");
  b.read(0, 10, 11, "a");
  b.read(0, 12, 13, "b");
  b.read(1, 10, 11, "b");
  b.read(1, 12, 13, "c");
  b.read(2, 10, 11, "c");
  b.read(2, 12, 13, "a");
  expect_both_reject(b.h, "three-writer cycle");
}

TEST(CheckerMutants, StaleBottomRead) {
  // A completed write, then a read of bottom: the initial value came
  // back from the future of a completed write.
  hb b;
  b.write(0, 1, 2, "x");
  b.read(0, 3, 4, k_bottom_value);
  expect_both_reject(b.h, "stale bottom read");
}

TEST(CheckerMutants, ReadFromTheFuture) {
  hb b;
  b.read(0, 1, 2, "later");
  b.write(0, 5, 6, "later");
  expect_both_reject(b.h, "read from the future");
  const auto res = check_mwmr_linearizable(b.h);
  EXPECT_NE(res.error.find("before its write"), std::string::npos)
      << res.error;
}

}  // namespace
}  // namespace fastreg::checker
