// Outbound coalescing shared by the store's multiplexing automata.
//
// During one step (an invocation or a delivered envelope/frame), inner
// per-object automata send through a tagging_netout, which stamps the
// object id and parks the message in a batch_collector. At the end of the
// step the collector flushes: all messages to one destination leave as a
// single send (one envelope on the simulator, one frame on TCP).
//
// A broadcast (netout::broadcast: one round's request to every server)
// is parked ONCE, with its list of destinations. On a transport that
// borrows (TCP), each destination's send lends it, so the message is
// encoded into every server's frame without a copy. On one that takes
// owned lists (the simulator), the flush copies it for every destination
// but its last, which gets it by move: the copies a per-server send loop
// makes, and the same envelopes.
//
// Envelope-semantics parity (sim == TCP): every send -- a send_batch, a
// borrowed list or a one-message send -- is ALWAYS one delivery unit: a
// sim envelope delivered as one on_batch step, and one TCP batch frame
// delivered as one on_batch step (tests/test_net.cc, DeliveryUnit.*). The
// TCP reactor flushes each connection once per reactor pass and never
// merges or splits the frames themselves, so the receiving
// automaton's step structure is identical on both transports. That is
// what lets TCP histories be verified by the same checkers as simulator
// runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "registers/automaton.h"

namespace fastreg::store {

class batch_collector {
 public:
  void add(const process_id& to, message&& m) {
    group_for(to).msgs.push_back(std::move(m));
  }

  /// Parks `m` once for netout::broadcast's targets: servers
  /// 0..servers-1 in index order, skipping `except`.
  void add_broadcast(std::uint32_t servers, message&& m,
                     std::uint32_t except = ~0u) {
    const auto index = static_cast<std::uint32_t>(shared_.size());
    std::uint32_t uses = 0;
    for (std::uint32_t i = 0; i < servers; ++i) {
      if (i == except) continue;
      group& g = group_for(server_id(i));
      g.shared.push_back({static_cast<std::uint32_t>(g.msgs.size()), index});
      ++uses;
    }
    if (uses > 0) shared_.push_back({std::move(m), uses});
  }

  /// Emits one send per destination, in first-touch order so simulator
  /// schedules stay deterministic, with its messages in the order they
  /// were parked, then resets. A destination with only its own messages
  /// sends its per-destination scratch vector itself, which the send
  /// empties (netout::send_batch) and the next step refills. One that
  /// shares broadcasts lends them (netout::send_borrowed) when the
  /// transport borrows, and otherwise gets its own copies.
  void flush(netout& net) {
    const bool lend = net.borrows();
    for (std::size_t i = 0; i < used_; ++i) {
      group& g = groups_[i];
      if (g.shared.empty()) {
        net.send_batch(g.to, g.msgs);
      } else if (lend) {
        refs_.clear();
        for (const auto& m : g.msgs) refs_.push_back(&m);
        for (std::size_t j = 0; j < g.shared.size(); ++j) {
          refs_.insert(refs_.begin() + slot(g, j),
                       &shared_[g.shared[j].index].m);
        }
        net.send_borrowed(g.to, refs_);
        g.msgs.clear();
      } else {
        for (std::size_t j = 0; j < g.shared.size(); ++j) {
          // A copy, or the message itself for its last destination.
          shared_msg& s = shared_[g.shared[j].index];
          const auto at = g.msgs.begin() + slot(g, j);
          if (--s.uses == 0) {
            g.msgs.insert(at, std::move(s.m));
          } else {
            g.msgs.insert(at, s.m);
          }
        }
        net.send_batch(g.to, g.msgs);
      }
      g.shared.clear();
      FASTREG_ENSURES(g.msgs.empty());
    }
    shared_.clear();
    used_ = 0;
  }

  /// Messages parked for sending, counted once per destination: 0 after
  /// every flush.
  [[nodiscard]] std::size_t parked() const {
    std::size_t n = 0;
    for (const auto& g : groups_) n += g.msgs.size() + g.shared.size();
    return n;
  }

 private:
  /// A parked broadcast and how many destinations have yet to take it.
  struct shared_msg {
    message m;
    std::uint32_t uses{0};
  };
  /// A broadcast's place in one destination's list: it goes before the
  /// destination's own message number `at`.
  struct shared_ref {
    std::uint32_t at{0};
    std::uint32_t index{0};
  };
  struct group {
    process_id to{};
    std::vector<message> msgs;
    std::vector<shared_ref> shared;
  };

  /// Where g's j-th broadcast goes in its list: before its own message
  /// `at`, behind the j broadcasts parked ahead of it.
  static std::ptrdiff_t slot(const group& g, std::size_t j) {
    return static_cast<std::ptrdiff_t>(g.shared[j].at + j);
  }

  group& group_for(const process_id& to) {
    for (std::size_t i = 0; i < used_; ++i) {
      if (groups_[i].to == to) return groups_[i];
    }
    if (used_ == groups_.size()) groups_.emplace_back();
    group& g = groups_[used_++];
    g.to = to;
    return g;
  }

  // Destinations per step are few (at most the fleet size): linear scan
  // beats hashing and keeps flush order deterministic. Entries from
  // used_ on are idle scratch.
  std::vector<group> groups_;
  std::size_t used_{0};
  /// This step's broadcasts, each parked once.
  std::vector<shared_msg> shared_;
  /// Flush scratch: the list a borrowing transport is lent.
  std::vector<const message*> refs_;
};

/// netout an inner per-object automaton sends through: stamps the object
/// id, the sender's shard-map epoch and the op's attempt counter on every
/// outbound message and defers the actual send to the enclosing step's
/// collector. The epoch stamp is what lets receivers fence traffic routed
/// under a superseded map (src/reconfig).
class tagging_netout final : public netout {
 public:
  tagging_netout(batch_collector& out, object_id obj,
                 epoch_t epoch = k_initial_epoch, std::uint32_t attempt = 0,
                 bool mig = false, std::uint64_t trace = 0,
                 std::uint16_t span = 0)
      : out_(out),
        obj_(obj),
        epoch_(epoch),
        attempt_(attempt),
        mig_(mig),
        trace_(trace),
        span_(span) {}

  void send(const process_id& to, message m) override {
    stamp(m);
    out_.add(to, std::move(m));
  }

  /// Parks `m` once for all its targets (see batch_collector).
  void broadcast(std::uint32_t servers, message m,
                 std::uint32_t except = ~0u) override {
    stamp(m);
    out_.add_broadcast(servers, std::move(m), except);
  }

 private:
  void stamp(message& m) const {
    m.obj = obj_;
    m.epoch = epoch_;
    m.attempt = attempt_;
    m.mig = mig_;
    m.trace = trace_;
    m.span = span_;
  }

  batch_collector& out_;
  object_id obj_;
  epoch_t epoch_;
  std::uint32_t attempt_;
  bool mig_;
  std::uint64_t trace_;
  std::uint16_t span_;
};

}  // namespace fastreg::store
