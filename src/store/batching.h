// Outbound coalescing shared by the store's multiplexing automata.
//
// During one step (an invocation or a delivered envelope/frame), inner
// per-object automata send through a tagging_netout, which stamps the
// object id and parks the message in a batch_collector. At the end of the
// step the collector flushes: all messages to one destination leave as a
// single send_batch (one envelope on the simulator, one frame on TCP).
//
// Envelope-semantics parity (sim == TCP): every send -- a send_batch or a
// one-message send -- is ALWAYS one delivery unit: a sim envelope
// delivered as one on_batch step, and one TCP batch frame delivered as
// one on_batch step (tests/test_net.cc, DeliveryUnit.*). The TCP reactor's
// time-window flush (net::node_options) coalesces strictly at the byte
// level, packing several such frames into one writev; it never merges or
// splits the frames themselves, so the receiving automaton's step
// structure is identical on both transports whatever the window is. That
// is what lets histories produced under any batch window be verified by
// the same checkers as simulator runs.
#pragma once

#include <utility>
#include <vector>

#include "common/check.h"
#include "registers/automaton.h"

namespace fastreg::store {

class batch_collector {
 public:
  void add(const process_id& to, message&& m) {
    for (std::size_t i = 0; i < used_; ++i) {
      if (groups_[i].first == to) {
        groups_[i].second.push_back(std::move(m));
        return;
      }
    }
    if (used_ == groups_.size()) groups_.emplace_back();
    auto& [dest, msgs] = groups_[used_++];
    dest = to;
    msgs.push_back(std::move(m));
  }

  /// Emits one send_batch per destination, in first-touch order so
  /// simulator schedules stay deterministic, then resets. Each batch
  /// leaves in its per-destination scratch vector itself, which the send
  /// empties (netout::send_batch) and the next step refills.
  void flush(netout& net) {
    for (std::size_t i = 0; i < used_; ++i) {
      auto& [dest, msgs] = groups_[i];
      net.send_batch(dest, msgs);
      FASTREG_ENSURES(msgs.empty());
    }
    used_ = 0;
  }

  /// Messages parked in the scratch vectors: 0 after every flush.
  [[nodiscard]] std::size_t parked() const {
    std::size_t n = 0;
    for (const auto& [dest, msgs] : groups_) n += msgs.size();
    return n;
  }

 private:
  // Destinations per step are few (at most the fleet size): linear scan
  // beats hashing and keeps flush order deterministic. Entries from
  // used_ on are idle scratch.
  std::vector<std::pair<process_id, std::vector<message>>> groups_;
  std::size_t used_{0};
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
    m.obj = obj_;
    m.epoch = epoch_;
    m.attempt = attempt_;
    m.mig = mig_;
    m.trace = trace_;
    m.span = span_;
    out_.add(to, std::move(m));
  }

 private:
  batch_collector& out_;
  object_id obj_;
  epoch_t epoch_;
  std::uint32_t attempt_;
  bool mig_;
  std::uint64_t trace_;
  std::uint16_t span_;
};

}  // namespace fastreg::store
