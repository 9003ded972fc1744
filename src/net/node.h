// A network node: one or more protocol automata (actors) hosted on a
// sharded epoll reactor pool, speaking the framed TCP protocol of
// framing.h.
//
// Topology (matching the paper's client/server system):
//  * server nodes listen on a TCP port; clients connect to every server
//    lazily and keep the connection open; servers answer over the same
//    connection.
//  * server nodes also open outbound connections to other servers when the
//    protocol requires it (the max-min variant's gossip round).
//
// Reactor sharding: node_options::reactors picks the number of event-loop
// threads. Reactor 0 owns the listener and dispatches accepted
// connections round-robin across the pool; each connection's frame
// buffer and zero-copy buffer chain are owned by exactly one reactor and
// never touched from another thread. A send whose destination connection
// lives on a different reactor ships the messages to the owning
// reactor's task queue (serial-checked against fd reuse) and is encoded
// there, so receivers observe the same frame/step structure either way.
//
// Actors: a node hosts one or more automata, installed with add_actor
// before start() and addressed by actor index. A server has exactly one
// (actor 0); a cluster's client node hosts every client automaton
// multiplexed over its reactor pool -- one reactor per client, or a
// handful carrying thousands of pipelined client connections. Each actor
// is pinned to a home reactor (index % reactors); its invocations run
// there and its outbound connections are created there, so a client
// actor's whole data path is single-threaded. Server automata may be
// stepped from any reactor (deliveries arrive on whichever reactor owns
// the inbound connection); a per-actor step mutex serializes those
// steps.
//
// Waiting for an operation: the node knows nothing of operations. Every
// TCP client is a store client, and the store's sessions install a step
// hook (set_step_hook / schedule_step) that begins their queued ops and
// takes completions; the hook is the only way a caller learns an op
// completed. A reactor runs it once per epoll pass for each actor the
// pass stepped, after every frame the pass delivered, so one hook run
// takes all of the pass's completions and begins every op admitted by
// then. The node's own waits (run_on_reactor, fault application) wait for
// a posted step or a reactor ack, never for an op.
//
// Inbound path (allocation-free): each connection's frame_buffer parses
// frames in place from the reactor's read buffer and decodes each over
// the messages it keeps from earlier frames (their strings keep their
// capacity); the automaton's on_batch step borrows the frame's first
// `count` of them, which the next frame overwrites.
//
// Outbound path (zero-copy): every send -- a one-message send(), a
// send_batch() or a borrowed list (send_borrowed: the store lends a
// broadcast parked once to every server's send) -- is one lent list of
// messages, encoded as one count-prefixed batch frame straight into the
// destination connection's buffer_chain (exact-size reservation, no
// intermediate byte vector). Only a send to a connection another reactor
// owns copies the messages, to ship them there (ship_to). The one flush
// policy: a connected connection hands its whole chain to one writev in
// the step that queued the frames; a connecting one sends when it turns
// writable. The receiver delivers each frame as one on_batch step,
// exactly as the simulator delivers one envelope. A store session begins
// every op of a hook run inside one frame per server, so a reactor pass
// costs a session one frame and one writev per server.
//
// Fault hooks: every connection can be paused (no reads, no writes --
// bytes queue up; healing flushes them), blackholed (reads and writes
// silently discarded; healing RESETS the connection, since a partially
// written frame cannot be resumed), or reset outright. set_fault_all
// drives partition schedules from the stress harness.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/buffer_chain.h"
#include "net/framing.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "registers/automaton.h"

namespace fastreg::net {

/// Where to find each server. Clients and servers share one address book.
struct address_book {
  std::vector<std::uint16_t> server_ports;
};

/// Per-connection fault injection state (stress/partition harness).
enum class conn_fault : std::uint8_t {
  none = 0,
  /// No reads, no writes; outbound bytes queue. Healing flushes them.
  pause = 1,
  /// Reads and writes silently discarded. Healing resets the connection
  /// (a half-written frame cannot be resumed without corrupting the
  /// peer's stream).
  blackhole = 2,
};

/// Reactor pool of a node.
struct node_options {
  /// Number of reactor (event-loop) threads. Connections are owned by
  /// exactly one reactor; reactor 0 accepts and deals new connections
  /// round-robin.
  std::uint32_t reactors{1};

  // There is no batch window: every connection flushes in the step that
  // queued its frames. These constants keep the names the benchmark's
  // pinned-config line prints (benchmark/src/report.cc), at the values
  // of that one policy.
  static constexpr std::uint32_t batch_window_us = 0;
  static constexpr bool adaptive = false;
  static constexpr std::uint32_t flush_bytes = 0;
};

class node final {
 public:
  /// An automaton step run on the actor's home reactor, with the actor's
  /// netout so it can send.
  using step_fn = std::function<void(automaton&, netout&)>;

  /// Starts with no actors; install them with add_actor() before start().
  node(system_config cfg, std::shared_ptr<const address_book> book,
       node_options opt = {});
  ~node();

  node(const node&) = delete;
  node& operator=(const node&) = delete;

  /// Installs another automaton on this node (before start() only).
  /// Returns its actor index; the actor is pinned to reactor
  /// (index % reactors).
  std::size_t add_actor(std::unique_ptr<automaton> a);

  /// Servers: bind the listener (port 0 = ephemeral) before start().
  void bind_listener(std::uint16_t port = 0);
  [[nodiscard]] std::uint16_t listen_port() const;

  void start();
  void stop();

  /// Installs `hook` (empty = clear) to run under the actor's step mutex
  /// once per reactor pass that stepped the actor (its delivery drains and
  /// schedule_step tasks), after the pass's last frame, and right after
  /// each run_on_reactor step -- how a pipelined store session takes
  /// completions and begins queued ops. Once this returns, the old hook
  /// never runs again.
  void set_step_hook(std::size_t actor, step_fn hook);
  /// Queues a step of the actor that only runs its hook, at the end of
  /// the home reactor's next pass, without waiting; calls made before it
  /// runs share it, and so do the pass's deliveries. False when the node
  /// is not running.
  [[nodiscard]] bool schedule_step(std::size_t actor);

  /// Runs `fn` as a step of the actor on its home reactor and waits for
  /// it to finish (not for any op it starts). The only way for
  /// non-reactor code to inspect automaton state that late messages may
  /// still mutate, or to start or re-issue protocol traffic (the reshard
  /// coordinator's handoff ops and resumes of parked ops). Never runs
  /// `fn` on the caller's thread: returns false, without running it,
  /// when the node was never started or is stopped (also when the
  /// reactor exits before draining the task). A stopped node models a
  /// crashed process.
  [[nodiscard]] bool run_on_reactor(std::size_t actor, const step_fn& fn);

  /// Applies `f` to every current connection on every reactor (and to
  /// connections accepted/opened later, until cleared with
  /// conn_fault::none). Returns after every reactor acknowledged, so the
  /// fault is fully in force (or fully lifted) when this returns.
  /// Healing a blackholed connection resets it.
  void set_fault_all(conn_fault f);
  /// Hard-resets every connection on every reactor (the peers reconnect
  /// with fresh framing state).
  void reset_all_conns();

  [[nodiscard]] const process_id& self() const { return self_; }

 private:
  struct actor_state;

  /// Which reactor owns a connection, plus an fd-reuse guard.
  struct conn_ref {
    std::uint32_t reactor{0};
    int fd{-1};
    std::uint64_t serial{0};
  };

  struct connection {
    unique_fd fd;
    frame_buffer in;
    /// Outbound frames, encoded in place; flushed with one writev.
    buffer_chain out;
    std::optional<process_id> peer;
    /// Actor whose traffic this connection carries: the opening actor
    /// for outbound connections, actor 0 for inbound ones.
    actor_state* owner{nullptr};
    /// Monotone creation serial; cross-reactor sends carry it so a
    /// shipped frame never lands on a recycled fd.
    std::uint64_t serial{0};
    bool connecting{false};
    /// Interest mask last given to epoll (update_epoll skips no-ops).
    std::uint32_t epoll_mask{0};
    conn_fault fault{conn_fault::none};
  };

  struct reactor {
    std::uint32_t index{0};
    node* owner{nullptr};
    unique_fd epoll_fd;
    unique_fd event_fd;
    std::thread thread;
    std::unordered_map<int, connection> conns;
    /// Connection currently being drained by handle_readable; close_conn
    /// on it is deferred until the drain returns.
    int drain_guard_fd{-1};
    bool drain_close_pending{false};
    /// Posted tasks, guarded by q_mu. Each epoll pass swaps them into
    /// `running` (reactor thread only) and runs them there; the two
    /// vectors keep their capacity, so posting allocates no queue node.
    std::mutex q_mu;
    std::vector<std::function<void()>> tasks;
    std::vector<std::function<void()>> running;
    /// Actors homed here whose hook this pass still owes, in the order
    /// they were first marked (reactor thread only; see mark_step).
    std::vector<actor_state*> marked;
    /// Guarded by the node's mu_ (paired with cv_).
    bool exited{false};
  };

  /// The actor's netout: routes sends through the hosting node with the
  /// actor's identity (hello frames, outbound connection ownership).
  struct actor_port final : netout {
    node* n{nullptr};
    actor_state* a{nullptr};
    void send(const process_id& to, message m) override;
    void send_batch(const process_id& to,
                    std::vector<message>& msgs) override;
    [[nodiscard]] bool borrows() const override { return true; }
    void send_borrowed(const process_id& to, message_refs msgs) override;
  };

  struct actor_state {
    std::unique_ptr<automaton> automaton_;
    process_id self{};
    std::uint32_t home_reactor{0};
    obs::recorder* rec{nullptr};
    actor_port port{};
    /// Serializes automaton steps. Uncontended for client actors (all
    /// their steps run on the home reactor); contended only for a server
    /// actor stepped from several reactors. All sends happen under it.
    std::mutex step_mu;
    /// send_batch's list of its messages, lent to send_from. Guarded by
    /// step_mu.
    std::vector<const message*> refs;
    /// Outbound connections to servers, by server index. Guarded by
    /// step_mu. Entries are validated lazily against the connection's
    /// serial (a closed connection leaves a stale ref behind).
    std::map<std::uint32_t, conn_ref> out_to_server;
    /// See set_step_hook. Guarded by step_mu.
    step_fn step_hook;
    /// A schedule_step task is queued and has not started yet.
    std::atomic<bool> step_scheduled{false};
    /// In home_of(*this).marked. Only the home reactor touches it.
    bool hook_marked{false};
  };

  void init_reactors();
  void bind_node_metrics();
  [[nodiscard]] actor_state& actor_at(std::size_t i) const;
  [[nodiscard]] reactor& home_of(actor_state& a) {
    return *reactors_[a.home_reactor];
  }
  /// The reactor struct this thread is currently running, when it
  /// belongs to THIS node; nullptr otherwise (off-reactor context).
  [[nodiscard]] reactor* current_reactor() const;

  void reactor_main(reactor& r);
  void post_to(reactor& r, std::function<void()> fn);
  void wake(reactor& r);
  void adopt_inbound(reactor& r, unique_fd fd);
  void handle_readable(reactor& r, int fd);
  void handle_writable(reactor& r, int fd);
  void flush(reactor& r, int fd, connection& c);
  void close_conn(reactor& r, int fd);
  void update_epoll(reactor& r, int fd, connection& c);
  void apply_fault(reactor& r, int fd, connection& c, conn_fault f);

  // Send path: every send is a lent message list. All called on one of
  // this node's reactors with a.step_mu held (sends only originate inside
  // automaton steps, which run there and hold it).
  void send_from(actor_state& a, const process_id& to, message_refs msgs);
  void route_from(actor_state& a, const process_id& to, message_refs msgs);
  /// Encodes `msgs` into the connection's chain on its owning reactor
  /// (inline when that is the current context) as count-prefixed batch
  /// frames -- one, unless the messages exceed the chunk limit -- and
  /// flushes them (a connecting connection flushes once writable).
  void queue_frames(reactor& r, int fd, connection& c, const process_id& from,
                    message_refs msgs);
  /// Opens an outbound connection to server `index` on reactor `r` for
  /// actor `a` (hello first) and registers it in a.out_to_server.
  conn_ref open_to_server(reactor& r, actor_state& a, std::uint32_t index);
  /// Copies the messages `msgs` points at to the reactor owning `ref`,
  /// when that is not the current one, for encoding there. Drops (and,
  /// for server routes, lazily invalidates a.out_to_server) when the
  /// serial shows the connection is gone.
  void ship_to(const conn_ref& ref, actor_state& a, int server_index,
               message_refs msgs);
  /// Runs `fn` on every reactor and returns once all acknowledged (or
  /// exited). No-op before start().
  void run_on_all_reactors(const std::function<void(reactor&)>& fn);

  /// Runs the actor's step hook, if one is installed, under its step
  /// mutex.
  void run_step_hook(actor_state& a);
  /// Ends a step of the actor taken on reactor `r`: on the actor's home
  /// reactor, marks it (O(1)) so the pass's end runs its hook once; off
  /// it, runs the hook now.
  void mark_step(reactor& r, actor_state& a);
  /// Runs the hook of every actor marked this pass, once each, in the
  /// order they were first marked.
  void run_marked_hooks(reactor& r);

  system_config cfg_;
  std::shared_ptr<const address_book> book_;
  process_id self_;
  node_options opt_;

  std::vector<std::unique_ptr<actor_state>> actors_;
  std::vector<std::unique_ptr<reactor>> reactors_;
  unique_fd listen_fd_;
  std::uint64_t next_conn_rr_{0};
  std::atomic<std::uint64_t> next_conn_serial_{1};
  /// Fault inherited by connections created while a fault is in force.
  std::atomic<conn_fault> default_fault_{conn_fault::none};

  /// Reply routes: peer pid -> connection it introduced itself on.
  /// Written by the owning reactor on hello/close, read by any reactor
  /// when routing a send.
  mutable std::mutex route_mu_;
  std::unordered_map<process_id, conn_ref> inbound_by_peer_;

  /// Registry handles, resolved once off-reactor with this node's label;
  /// the hot path only touches these cached pointers. Shared across
  /// reactors (all underlying metrics are thread-safe).
  struct wire_metrics {
    obs::counter* frames_out{nullptr};
    obs::counter* bytes_out{nullptr};
    obs::counter* frames_in{nullptr};
    obs::counter* writev_calls{nullptr};
    obs::counter* conn_resets{nullptr};
    /// framing's process-global malformed-frame counter.
    obs::counter* malformed_frames{nullptr};
    obs::gauge* backlog_bytes{nullptr};
    obs::histogram* flush_ns{nullptr};
  };
  wire_metrics wm_;
  /// Per-reactor handles (label reactor="i"), pre-created before any
  /// reactor thread exists -- the registry's fetch-or-create path is
  /// asserted cold on reactor threads.
  struct reactor_metrics {
    obs::counter* tasks_run{nullptr};
    obs::counter* accepts{nullptr};
    obs::counter* ships_in{nullptr};
    /// Open connections; a node's total is the sum over its reactors.
    obs::gauge* connections{nullptr};
    // The reactor's syscalls besides sendmsg (wm_.writev_calls): what a
    // round costs the kernel, counted where each call is made.
    obs::counter* epoll_waits{nullptr};
    obs::counter* socket_reads{nullptr};
    /// eventfd wakeup writes, by whether the reactor woke itself (a post
    /// from its own thread) or another thread woke it.
    obs::counter* wakes_own{nullptr};
    obs::counter* wakes_other{nullptr};
    /// epoll_ctl calls after construction (connection add, mask change,
    /// removal).
    obs::counter* epoll_ctls{nullptr};
  };
  std::vector<reactor_metrics> rm_;
  bool metrics_bound_{false};

  /// Guards the run state and each reactor's `exited`; cv_ wakes callers
  /// waiting for a posted step or for every reactor's ack.
  std::mutex mu_;
  std::condition_variable cv_;
  bool started_{false};
  bool stop_requested_{false};
};

}  // namespace fastreg::net
