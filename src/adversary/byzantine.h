// Concrete malicious server behaviours (Section 6's arbitrary failures).
//
// Each behaviour is an automaton that can replace a server in the
// simulator via world::replace_automaton. They fall into two groups:
//
//  * Attack library for stress tests (E10): mute, stale replies,
//    signature forging, equivocation, lying seen sets. The Figure 5
//    protocol must mask any b of these.
//  * Proof gadgets: two_faced_server implements the Section 6.2 failure
//    "replies to r1 as if it never received the write, to everyone else
//    as if it were correct" by running a real and a shadow instance of
//    the server; memory-loss ("B_i loses its memory") is done by replacing
//    a server with a fresh automaton.
//
// The wrappers take the automata they wrap by ownership. Nothing copies a
// running automaton: a caller wraps before any traffic, passing a fresh
// protocol::make_server() automaton whose state equals the installed
// server's at that point.
//
// None of these behaviours can forge the writer's signature: they only
// ever replay stored signed triples or emit garbage signatures, exactly
// matching the unforgeability assumption.
#pragma once

#include <memory>
#include <unordered_set>

#include "registers/automaton.h"

namespace fastreg::adversary {

/// Never replies to anything (indistinguishable from a crash).
class mute_server final : public automaton {
 public:
  explicit mute_server(std::uint32_t index) : index_(index) {}
  void on_message(netout&, const process_id&, const message&) override {}
  [[nodiscard]] process_id self() const override { return server_id(index_); }

 private:
  std::uint32_t index_;
};

/// Always answers with the initial state (ts = 0, bottom, empty-but-self
/// seen set): a malicious attempt to hide every write.
class stale_server final : public automaton {
 public:
  explicit stale_server(std::uint32_t index) : index_(index) {}
  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override { return server_id(index_); }

 private:
  std::uint32_t index_;
};

/// Claims an enormous timestamp with a garbage signature: the basic
/// forgery attack that Figure 5's receivevalid must reject.
class forging_server final : public automaton {
 public:
  explicit forging_server(std::uint32_t index) : index_(index) {}
  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override { return server_id(index_); }

 private:
  std::uint32_t index_;
};

/// Wraps a correct server but reports `seen` as the full client universe:
/// tries to trick the fast-read predicate into firing early. The stored
/// timestamp and signature remain genuine.
class seen_liar_server final : public automaton {
 public:
  seen_liar_server(std::unique_ptr<automaton> inner, std::uint32_t clients);
  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override { return inner_->self(); }

 private:
  std::unique_ptr<automaton> inner_;
  std::uint32_t clients_;
};

/// Behaves correctly toward most processes but answers a chosen set of
/// readers from a *shadow* copy of itself that never sees writes: the
/// Section 6.2 "fails and loses its memory / two-faced" behaviour.
class two_faced_server final : public automaton {
 public:
  /// `real` and `shadow` must hold the same state -- in practice two
  /// fresh make_server() automata installed before any traffic -- so the
  /// shadow forgets exactly what arrives from this point on.
  two_faced_server(std::unique_ptr<automaton> real,
                   std::unique_ptr<automaton> shadow,
                   std::unordered_set<process_id> shadow_targets);

  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override { return real_->self(); }

 private:
  std::unique_ptr<automaton> real_;
  std::unique_ptr<automaton> shadow_;
  std::unordered_set<process_id> shadow_targets_;
};

/// Replies correctly to the writer but with stale state to every reader
/// whose index is even: an equivocation pattern.
class equivocating_server final : public automaton {
 public:
  equivocating_server(std::unique_ptr<automaton> inner, std::uint32_t index);
  void on_message(netout& net, const process_id& from,
                  const message& m) override;
  [[nodiscard]] process_id self() const override { return server_id(index_); }

 private:
  std::unique_ptr<automaton> inner_;
  std::uint32_t index_;
};

}  // namespace fastreg::adversary
