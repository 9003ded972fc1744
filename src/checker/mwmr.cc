// check_mwmr_linearizable: polynomial register linearizability.
//
// The key observation (Gibbons & Korach, "Testing Shared Memories"):
// verifying linearizability of a register history is NP-hard in general,
// but with UNIQUE written values every read names its dictating write, and
// the problem collapses to ordering per-value clusters.
//
// Cluster C_v = { write(v) } u { completed reads returning v }; the
// initial value bottom gets a virtual write completed before time began.
// A linearization orders the writes and places each cluster's reads
// between its write and the next write, so H is linearizable iff
//
//   (V) every completed read is VALID: its value was written, and the
//       dictating write was invoked no later than the read responded
//       (a read cannot return a value from its future); and
//   (A) the precedence relation  u -> v  iff  some op of C_u responds
//       before some op of C_v is invoked  is ACYCLIC over clusters.
//
// (V) + (A) => linearizable: take any topological order of the clusters;
// placing each cluster's reads right after its write (sorted by invoke
// time) satisfies every real-time constraint, because a violated
// constraint between clusters would be a relation edge contradicting the
// topological order, and within a cluster (V) plus the sort handle it.
// Linearizable => (V) + (A) is immediate: a linearization is a witness
// order.
//
// Acyclicity reduces to a PAIRWISE test: with a(u) = min response over
// C_u and b(u) = max invocation over C_u, the relation is "u -> v iff
// a(u) < b(v)". Any directed cycle contains a 2-cycle: let u* be the
// cycle node with minimum a; for every other cycle node w with
// predecessor w' on the cycle, a(u*) <= a(w') < b(w) gives the edge
// u* -> w, so u* -> pred(u*) closes a 2-cycle with pred(u*) -> u*.
// Hence H is non-linearizable iff some PAIR u != v has
// a(u) < b(v) && a(v) < b(u), found by sorting clusters by a and
// sweeping with prefix maxima of b -- O(n log n) overall.
//
// Incomplete operations: an incomplete read never has to take effect and
// is ignored. An incomplete write whose value no completed read returned
// can always be dropped from a linearization (nothing between it and the
// next write observes it), so it is ignored too; one that WAS read must
// take effect and joins its cluster with response = +infinity. This is
// exactly the semantics of the exponential oracle (check_linearizable),
// which test_checker_differential.cc holds the two to.
#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "checker/atomicity.h"
#include "checker/fail.h"

namespace fastreg::checker {
namespace {

using detail::fail;

/// Time extended with -infinity (the virtual initial write's response)
/// and +infinity (an incomplete op's response). Lexicographic compare.
struct ext_time {
  int cls{0};  // -1: -inf, 0: finite, +1: +inf
  std::uint64_t t{0};

  friend auto operator<=>(const ext_time&, const ext_time&) = default;
};

constexpr ext_time k_neg_inf{-1, 0};
constexpr ext_time k_pos_inf{+1, 0};

ext_time response_of(const op_record& op) {
  return op.response_time ? ext_time{0, *op.response_time} : k_pos_inf;
}

std::string op_desc(const op_record* op) {
  if (op == nullptr) return "the initial state";
  std::string s = op->is_write ? "write" : "read";
  s += " of \"" + op->val + "\" by " + to_string(op->client);
  return s;
}

/// One per-value cluster: the dictating write (null for bottom) plus
/// every completed read returning the value, reduced to the two numbers
/// the pairwise cycle test needs -- with witness ops for error messages.
struct cluster {
  value_t val{};
  /// min response over member ops (-inf for the bottom cluster's
  /// virtual write), and the op achieving it.
  ext_time a{k_pos_inf};
  const op_record* a_op{nullptr};
  /// max invocation over member ops (-inf when the cluster is only the
  /// virtual bottom write), and the op achieving it.
  ext_time b{k_neg_inf};
  const op_record* b_op{nullptr};
  bool write_included{false};

  void add(const op_record* op) {
    const ext_time resp = op == nullptr ? k_neg_inf : response_of(*op);
    const ext_time inv =
        op == nullptr ? k_neg_inf : ext_time{0, op->invoke_time};
    if (resp < a) {
      a = resp;
      a_op = op;
    }
    if (inv > b || b_op == nullptr) {
      b = inv;
      b_op = op;
    }
  }
};

}  // namespace

check_result check_mwmr_linearizable(const history& h) {
  // ---- index the writes; enforce the input assumptions ----------------
  std::map<value_t, const op_record*> write_of;
  for (const auto& op : h.ops()) {
    if (!op.is_write) continue;
    if (op.val == k_bottom_value) {
      return fail("MWMR checker: a write of the bottom (empty) value is "
                  "indistinguishable from the initial state; written "
                  "values must be non-empty", {&op});
    }
    const auto [it, inserted] = write_of.emplace(op.val, &op);
    if (!inserted) {
      return fail("MWMR checker requires unique written values: \"" +
                  op.val + "\" written by both " +
                  to_string(it->second->client) + " and " +
                  to_string(op.client), {it->second, &op});
    }
  }

  // ---- build clusters --------------------------------------------------
  // clusters_by_val maps a value to its cluster slot, created lazily for
  // the bottom cluster and for every write that must take effect.
  std::vector<cluster> clusters;
  std::map<value_t, std::size_t> slot_of;
  auto slot_for = [&](const value_t& v,
                      const op_record* write) -> cluster& {
    const auto [it, inserted] = slot_of.emplace(v, clusters.size());
    if (inserted) {
      clusters.push_back({});
      clusters.back().val = v;
    }
    auto& c = clusters[it->second];
    if (write != nullptr || v == k_bottom_value) {
      if (!c.write_included) {
        c.write_included = true;
        c.add(write);  // nullptr == the virtual bottom write
      }
    }
    return c;
  };

  // The bottom cluster always exists: its virtual write responds at
  // -infinity, which puts it (correctly) before every other cluster.
  slot_for(k_bottom_value, nullptr);
  // Complete writes must take effect even if nobody read them.
  for (const auto& op : h.ops()) {
    if (op.is_write && op.response_time) slot_for(op.val, &op);
  }
  // Completed reads join their value's cluster; an incomplete write some
  // read observed is forced to take effect here.
  for (const auto& op : h.ops()) {
    if (op.is_write || !op.response_time) continue;
    const op_record* w = nullptr;
    if (op.val != k_bottom_value) {
      const auto it = write_of.find(op.val);
      if (it == write_of.end()) {
        return fail("read by " + to_string(op.client) +
                    " returned unwritten value \"" + op.val + "\"", {&op});
      }
      w = it->second;
      // Validity: the dictating write must not begin after the read
      // ended (reading from the future).
      if (*op.response_time < w->invoke_time) {
        return fail("read by " + to_string(op.client) + " returned \"" +
                    op.val + "\" before its write (by " +
                    to_string(w->client) + ") was invoked", {&op, w});
      }
    }
    slot_for(op.val, w).add(&op);
  }

  // ---- pairwise cycle sweep -------------------------------------------
  // Order clusters by a ascending; for each v, every u in the strict
  // prefix { a(u) < b(v) } has an edge u -> v, so a 2-cycle exists iff
  // the prefix (minus v itself) contains some u with b(u) > a(v). Track
  // the top two prefix maxima of b so excluding v costs nothing.
  std::vector<std::size_t> order(clusters.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return clusters[x].a < clusters[y].a;
  });
  struct prefix_max {
    ext_time best{k_neg_inf};
    std::size_t best_idx{static_cast<std::size_t>(-1)};
    ext_time second{k_neg_inf};
    std::size_t second_idx{static_cast<std::size_t>(-1)};
  };
  std::vector<prefix_max> pref(order.size() + 1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    prefix_max p = pref[i];
    const auto& c = clusters[order[i]];
    if (c.b > p.best) {
      p.second = p.best;
      p.second_idx = p.best_idx;
      p.best = c.b;
      p.best_idx = order[i];
    } else if (c.b > p.second) {
      p.second = c.b;
      p.second_idx = order[i];
    }
    pref[i + 1] = p;
  }
  std::vector<ext_time> sorted_a(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    sorted_a[i] = clusters[order[i]].a;
  }
  for (std::size_t vi = 0; vi < clusters.size(); ++vi) {
    const auto& v = clusters[vi];
    // Strict prefix with a(u) < b(v).
    const auto cnt = static_cast<std::size_t>(
        std::lower_bound(sorted_a.begin(), sorted_a.end(), v.b) -
        sorted_a.begin());
    if (cnt == 0) continue;
    const auto& p = pref[cnt];
    ext_time best = p.best;
    std::size_t best_idx = p.best_idx;
    if (best_idx == vi) {
      best = p.second;
      best_idx = p.second_idx;
    }
    if (best_idx == static_cast<std::size_t>(-1) || !(v.a < best)) {
      continue;
    }
    const auto& u = clusters[best_idx];
    return fail(
        "not linearizable: values \"" + u.val + "\" and \"" + v.val +
        "\" must each precede the other (" + op_desc(u.a_op) +
        " responded before " + op_desc(v.b_op) + " was invoked, and " +
        op_desc(v.a_op) + " responded before " + op_desc(u.b_op) +
        " was invoked)", {u.a_op, v.b_op, v.a_op, u.b_op});
  }
  return {};
}

}  // namespace fastreg::checker
