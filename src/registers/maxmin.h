// The decentralized "max-min" read optimization sketched in Section 1:
//
//   The reader sends READ to all servers. Every server, on receiving it,
//   broadcasts its timestamp to all servers. On receiving timestamps from
//   a majority, a server adopts the maximum and sends it to the reader.
//   The reader returns the MINIMUM timestamp among S - t replies.
//
// The read takes 3 one-way message delays (reader->servers, servers->
// servers, servers->reader) instead of ABD's 4 (two full round-trips), at
// the cost of S^2 gossip messages per read. It is NOT fast in the paper's
// sense: servers wait for other servers' messages before replying, which
// the fast-implementation definition (Section 3.2) forbids -- that is
// exactly why the paper's Figure 2 algorithm is interesting.
//
// Writes are plain one-round ABD writes; the reader is abd_reader with
// read_rule::min (registers/abd.h). Requires t < S/2.
#pragma once

#include <cstddef>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "registers/automaton.h"

namespace fastreg {

class maxmin_server final : public automaton, public seedable {
 public:
  maxmin_server(system_config cfg, std::uint32_t index);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override {
    return server_id(index_);
  }

  [[nodiscard]] register_snapshot peek_state() const override {
    return {ts_.num, ts_.wid, val_, val_, {}};
  }
  void seed_state(const register_snapshot& s) override {
    ts_ = {s.ts, s.wid};
    val_ = s.val;
  }

  [[nodiscard]] wts_t stored_ts() const { return ts_; }
  /// Read instances this server still tracks. A gather is erased once it
  /// has replied and heard from all S servers, so with every server up
  /// the count returns to 0 when the reads end, and once a newer read of
  /// the same reader is heard of here. A crashed server never gossips, so
  /// while one is down each reader leaves its newest read's gather
  /// behind, and only that one: at most R in all.
  [[nodiscard]] std::size_t open_gathers() const { return gathers_.size(); }

 private:
  struct gather {
    server_set senders{};
    wts_t max_ts{};
    value_t max_val{};
    bool got_read_req{false};
    bool replied{false};
  };

  /// A reader's read instance, (attempt, rcounter): ordered as the
  /// reader issues them (see gathers_).
  using read_no = std::pair<std::uint32_t, std::uint64_t>;
  /// (reader index, attempt, rcounter): one reader's gathers are
  /// adjacent, oldest read first.
  using gather_key = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;
  using gather_map = std::map<gather_key, gather>;

  /// The gather of the read `m` (a read_req, or gossip about one) belongs
  /// to; end() when a newer read of the same reader was seen here. Erases
  /// the reader's older gathers.
  gather_map::iterator gather_for(std::uint32_t reader, const message& m);
  /// Replies once the gather has a quorum, and erases it once nothing
  /// more can arrive for it.
  void advance(netout& net, const process_id& reader, std::uint64_t rc,
               gather_map::iterator it);
  /// Majority threshold for the server-to-server gather.
  [[nodiscard]] std::uint32_t gossip_quorum() const {
    return cfg_.S() / 2 + 1;
  }

  system_config cfg_;
  std::uint32_t index_;
  wts_t ts_{};
  value_t val_{};
  // Keyed by (reader index, attempt, rcounter): one gather per read
  // instance. The attempt (0 outside the store) separates a re-issued
  // read from a superseded attempt whose straggling request or gossip
  // carries the same rcounter -- the reply a gather produces is tagged
  // with its attempt, and a reply tagged with a stale attempt would be
  // dropped by the store client, starving the live read of this server's
  // answer (advance answers each gather exactly once).
  //
  // For one reader (and, in the store, one object: each object has its
  // own server automaton) (attempt, rcounter) only grows: the store
  // client bumps the object's attempt for every op and every re-issue,
  // and outside the store the attempt stays 0 while the reader bumps
  // rcounter for every read. A reader begins a read only after its last
  // one completed or was abandoned, so once a message of a newer read
  // arrives (its read_req, or a peer's gossip about it), no reply to an
  // older one can matter: the reader has taken its quorum or ignores the
  // answer. That message erases the reader's older gathers, and requests
  // and gossip of superseded reads are dropped. Without this, a crashed
  // server (which never gossips) would leave every read's gather, value
  // copy included, on each live server.
  gather_map gathers_{};
  /// Per reader: the newest read heard of here.
  std::unordered_map<std::uint32_t, read_no> newest_{};
};

}  // namespace fastreg
