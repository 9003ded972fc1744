#include "breakdown.h"

#include <algorithm>
#include <cmath>

#include "obs/timeline.h"
#include "stats.h"

namespace fastreg::bench {
namespace {

enum kind : std::uint8_t { k_other = 0, k_send = 1, k_recv = 2, k_serve = 3 };

std::uint8_t kind_of(const std::string& ev) {
  if (ev == "send") return k_send;
  if (ev == "recv") return k_recv;
  if (ev == "serve") return k_serve;
  return k_other;
}

/// Register data messages by wire code (registers/message.h): requests
/// are odd, their acks the next even code. Everything else is 0.
std::uint8_t type_code(const std::string& type) {
  static const char* const names[] = {"WRITE", "WRITEACK", "READ", "READACK",
                                      "WB",    "WBACK",    "QUERY",
                                      "QUERYACK"};
  for (std::uint8_t i = 0; i < 8; ++i) {
    if (type == names[i]) return static_cast<std::uint8_t>(i + 1);
  }
  return 0;
}

bool is_request(std::uint8_t type) { return type % 2 == 1; }

std::uint64_t non_negative(double v) {
  return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

/// Median by the benchmark's percentile rule (stats.h), so simulator
/// tick counts interpolate like latencies do.
double p50(std::vector<std::uint64_t>& v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 50);
}

}  // namespace

std::uint16_t breakdown_analyzer::intern(const std::string& name) {
  const auto [it, fresh] =
      names_.try_emplace(name, static_cast<std::uint16_t>(names_.size()));
  return it->second;
}

void breakdown_analyzer::add_dump(const std::string& text) {
  const auto parsed = obs::parse_recorder_dump(text);
  if (parsed.empty()) return;
  // Dumps are oldest first.
  cutoff_ = std::max(cutoff_, parsed.front().t);
  events_.reserve(events_.size() + parsed.size());
  for (const auto& e : parsed) {
    event c;
    c.kind = kind_of(e.ev);
    c.type = type_code(e.type);
    if (e.trace == 0 || c.kind == k_other || c.type == 0) continue;
    c.t = e.t;
    c.trace = e.trace;
    c.obj = e.obj;
    c.seq = static_cast<std::uint32_t>(e.seq);
    c.node = intern(e.node);
    c.peer = intern(e.peer);
    events_.push_back(c);
  }
}

breakdown breakdown_analyzer::analyze(const std::vector<traced_op>& ops) {
  std::sort(events_.begin(), events_.end(),
            [](const event& a, const event& b) {
              if (a.trace != b.trace) return a.trace < b.trace;
              if (a.t != b.t) return a.t < b.t;
              return a.seq < b.seq;
            });
  // Ops per (client, object), by invocation time: one op at a time per
  // pair, so a trace's first request send falls inside exactly one.
  std::unordered_map<std::uint64_t, std::vector<const traced_op*>> by_pair;
  auto pair_key = [](std::uint16_t client, std::uint64_t obj) {
    return obj * 31 + client;
  };
  for (const auto& op : ops) {
    by_pair[pair_key(intern(op.client), op.obj)].push_back(&op);
  }
  for (auto& [k, v] : by_pair) {
    std::sort(v.begin(), v.end(), [](const traced_op* a, const traced_op* b) {
      return a->t0 < b->t0;
    });
  }

  breakdown out;
  std::vector<std::uint64_t> seg_samples[k_num_segments];
  std::vector<double> residuals;
  std::vector<std::uint64_t> wires;
  std::vector<std::uint64_t> qwaits;

  auto find = [](auto first, auto last, auto pred) -> const event* {
    const auto it = std::find_if(first, last, pred);
    return it == last ? nullptr : &*it;
  };

  for (auto begin = events_.begin(); begin != events_.end();) {
    auto end = begin;
    while (end != events_.end() && end->trace == begin->trace) ++end;
    const auto group_begin = begin;
    begin = end;

    const event* first_req = find(group_begin, end, [](const event& e) {
      return e.kind == k_send && is_request(e.type);
    });
    if (first_req == nullptr) continue;
    const std::uint16_t client = first_req->node;
    const auto pit = by_pair.find(pair_key(client, first_req->obj));
    if (pit == by_pair.end()) continue;
    const auto& cand = pit->second;
    auto oit = std::upper_bound(
        cand.begin(), cand.end(), first_req->t,
        [](std::uint64_t t, const traced_op* o) { return t < o->t0; });
    if (oit == cand.begin()) continue;
    const traced_op& op = **std::prev(oit);
    if (first_req->t > op.t1 || op.t0 < cutoff_ || op.t1 <= op.t0) continue;

    // Rounds: distinct request types in order of first send.
    std::vector<std::uint8_t> rounds;
    for (auto e = group_begin; e != end; ++e) {
      if (e->kind == k_send && e->node == client && is_request(e->type) &&
          std::find(rounds.begin(), rounds.end(), e->type) == rounds.end()) {
        rounds.push_back(e->type);
      }
    }
    double seg[k_num_segments] = {};
    std::vector<std::uint64_t> op_wires;
    std::vector<std::uint64_t> op_qwaits;
    double after_round1 = 0;
    std::uint64_t last_quorum = 0;
    bool whole = true;
    for (std::size_t r = 0; r < rounds.size() && whole; ++r) {
      const std::uint8_t req = rounds[r];
      const std::uint8_t ack = static_cast<std::uint8_t>(req + 1);
      std::vector<const event*> acks;
      for (auto e = group_begin; e != end; ++e) {
        if (e->kind == k_recv && e->node == client && e->type == ack &&
            std::none_of(acks.begin(), acks.end(), [&](const event* a) {
              return a->peer == e->peer;
            })) {
          acks.push_back(&*e);
        }
      }
      if (acks.size() < quorum_) {
        whole = false;
        break;
      }
      const event& first_ack = *acks.front();
      const event& quorum_ack = *acks[quorum_ - 1];
      const std::uint16_t server = first_ack.peer;
      const event* round_start = find(group_begin, end, [&](const event& e) {
        return e.kind == k_send && e.node == client && e.type == req;
      });
      const event* sent = find(group_begin, end, [&](const event& e) {
        return e.kind == k_send && e.node == client && e.type == req &&
               e.peer == server;
      });
      const event* srv_recv = find(group_begin, end, [&](const event& e) {
        return e.kind == k_recv && e.node == server && e.type == req &&
               e.peer == client;
      });
      const event* srv_serve = find(group_begin, end, [&](const event& e) {
        return e.kind == k_serve && e.node == server && e.type == req;
      });
      const event* srv_send = find(group_begin, end, [&](const event& e) {
        return e.kind == k_send && e.node == server && e.type == ack &&
               e.peer == client;
      });
      if (!round_start || !sent || !srv_recv || !srv_serve || !srv_send) {
        whole = false;
        break;
      }
      auto d = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b) - static_cast<double>(a);
      };
      seg[0] += d(r == 0 ? op.t0 : round_start->t, sent->t);
      const double out_wire = d(sent->t, srv_recv->t);
      const double back_wire = d(srv_send->t, first_ack.t);
      const double qwait = d(first_ack.t, quorum_ack.t);
      seg[1] += out_wire;
      seg[2] += d(srv_recv->t, srv_serve->t);
      seg[3] += d(srv_serve->t, srv_send->t);
      seg[4] += back_wire;
      seg[5] += qwait;
      op_wires.push_back(non_negative(out_wire));
      op_wires.push_back(non_negative(back_wire));
      op_qwaits.push_back(non_negative(qwait));
      if (r == 0) after_round1 = d(quorum_ack.t, op.t1);
      last_quorum = quorum_ack.t;
    }
    if (!whole || rounds.empty()) continue;
    seg[6] = static_cast<double>(op.t1) - static_cast<double>(last_quorum);

    const double latency = static_cast<double>(op.t1 - op.t0);
    double sum = 0;
    for (std::size_t s = 0; s < k_num_segments; ++s) {
      sum += seg[s];
      out.segment[s] += seg[s];
      seg_samples[s].push_back(non_negative(seg[s]));
    }
    ++out.ops_whole;
    out.latency += latency;
    if (!op.is_put) {
      out.get_latency += latency;
      out.get_after_round1 += after_round1;
    }
    residuals.push_back(std::fabs(latency - sum) / latency);
    wires.insert(wires.end(), op_wires.begin(), op_wires.end());
    qwaits.insert(qwaits.end(), op_qwaits.begin(), op_qwaits.end());
  }

  for (std::size_t s = 0; s < k_num_segments; ++s) {
    out.segment_p50[s] = p50(seg_samples[s]);
  }
  out.residual_frac_p50 = median(std::move(residuals));
  out.wire_p50 = p50(wires);
  out.quorum_wait_p50 = p50(qwaits);
  return out;
}

}  // namespace fastreg::bench
