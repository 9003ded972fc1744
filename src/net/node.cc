#include "net/node.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>
#include <span>

#include "common/check.h"
#include "common/clock.h"
#include "common/log.h"

namespace fastreg::net {

namespace {
/// The reactor struct the current thread is running, if any. Paired with
/// the struct's owner back-pointer so nested nodes in one process never
/// mistake each other's reactors for their own.
thread_local void* tls_reactor = nullptr;
}  // namespace

// ------------------------------------------------------------ construction --

node::node(system_config cfg, std::shared_ptr<const address_book> book,
           node_options opt)
    : cfg_(std::move(cfg)), book_(std::move(book)), opt_(opt) {
  FASTREG_EXPECTS(opt_.reactors >= 1);
  init_reactors();
}

node::~node() { stop(); }

void node::init_reactors() {
  for (std::uint32_t i = 0; i < opt_.reactors; ++i) {
    auto r = std::make_unique<reactor>();
    r->index = i;
    r->owner = this;
    r->epoll_fd.reset(::epoll_create1(0));
    FASTREG_CHECK(r->epoll_fd.valid());
    r->event_fd.reset(::eventfd(0, EFD_NONBLOCK));
    FASTREG_CHECK(r->event_fd.valid());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = r->event_fd.get();
    FASTREG_CHECK(::epoll_ctl(r->epoll_fd.get(), EPOLL_CTL_ADD,
                              r->event_fd.get(), &ev) == 0);
    reactors_.push_back(std::move(r));
  }
}

void node::bind_node_metrics() {
  if (metrics_bound_) return;
  metrics_bound_ = true;
  // One label per node; handles stay valid for the life of the process
  // and all underlying metrics are thread-safe, so every reactor shares
  // them and the hot path never touches the registry's lock. Everything
  // a reactor thread could need lazily is created here, off-reactor: the
  // registry asserts its fetch-or-create path stays cold on reactors.
  auto& reg = obs::registry::instance();
  const std::string lbl = "node=\"" + to_string(self_) + "\"";
  wm_.frames_out = &reg.get_counter("fastreg_net_frames_out_total", lbl);
  wm_.bytes_out = &reg.get_counter("fastreg_net_bytes_out_total", lbl);
  wm_.frames_in = &reg.get_counter("fastreg_net_frames_in_total", lbl);
  wm_.writev_calls = &reg.get_counter("fastreg_net_writev_calls_total", lbl);
  wm_.conn_resets = &reg.get_counter("fastreg_net_conn_resets_total", lbl);
  wm_.malformed_frames =
      &reg.get_counter("fastreg_net_malformed_frames_total");
  wm_.backlog_bytes = &reg.get_gauge("fastreg_net_backlog_bytes", lbl);
  wm_.flush_ns = &reg.get_histogram("fastreg_net_flush_ns", lbl);
  rm_.resize(opt_.reactors);
  for (std::uint32_t i = 0; i < opt_.reactors; ++i) {
    const std::string rl = lbl + ",reactor=\"" + std::to_string(i) + "\"";
    rm_[i].tasks_run = &reg.get_counter("fastreg_net_reactor_tasks_total", rl);
    rm_[i].accepts =
        &reg.get_counter("fastreg_net_reactor_accepts_total", rl);
    rm_[i].ships_in =
        &reg.get_counter("fastreg_net_reactor_ships_total", rl);
    rm_[i].connections = &reg.get_gauge("fastreg_net_reactor_connections", rl);
    rm_[i].epoll_waits = &reg.get_counter("fastreg_net_epoll_waits_total", rl);
    rm_[i].socket_reads =
        &reg.get_counter("fastreg_net_socket_reads_total", rl);
    rm_[i].wakes_own = &reg.get_counter("fastreg_net_eventfd_wakes_total",
                                        rl + ",from=\"own\"");
    rm_[i].wakes_other = &reg.get_counter("fastreg_net_eventfd_wakes_total",
                                          rl + ",from=\"other\"");
    rm_[i].epoll_ctls = &reg.get_counter("fastreg_net_epoll_ctls_total", rl);
  }
  preheat_framing_metrics();
}

std::size_t node::add_actor(std::unique_ptr<automaton> a) {
  FASTREG_EXPECTS(a != nullptr);
  {
    std::lock_guard<std::mutex> lk(mu_);
    FASTREG_EXPECTS(!started_);
  }
  auto st = std::make_unique<actor_state>();
  st->automaton_ = std::move(a);
  st->self = st->automaton_->self();
  st->home_reactor =
      static_cast<std::uint32_t>(actors_.size()) % opt_.reactors;
  st->rec = &obs::recorder_for(st->self);
  st->port.n = this;
  st->port.a = st.get();
  if (actors_.empty()) {
    // The first actor names the node (log tag, metric labels).
    self_ = st->self;
    bind_node_metrics();
  }
  actors_.push_back(std::move(st));
  return actors_.size() - 1;
}

node::actor_state& node::actor_at(std::size_t i) const {
  FASTREG_EXPECTS(i < actors_.size());
  return *actors_[i];
}

node::reactor* node::current_reactor() const {
  auto* r = static_cast<reactor*>(tls_reactor);
  return r != nullptr && r->owner == this ? r : nullptr;
}

void node::bind_listener(std::uint16_t port) {
  listen_fd_ = listen_on(port);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_.get();
  FASTREG_CHECK(::epoll_ctl(reactors_[0]->epoll_fd.get(), EPOLL_CTL_ADD,
                            listen_fd_.get(), &ev) == 0);
}

std::uint16_t node::listen_port() const {
  FASTREG_EXPECTS(listen_fd_.valid());
  return local_port(listen_fd_.get());
}

void node::start() {
  FASTREG_EXPECTS(!actors_.empty());
  FASTREG_EXPECTS(!reactors_[0]->thread.joinable());
  {
    std::lock_guard<std::mutex> lk(mu_);
    started_ = true;
    stop_requested_ = false;
    for (auto& r : reactors_) r->exited = false;
  }
  // A step queued when the node last stopped was dropped unrun.
  for (auto& a : actors_) a->step_scheduled = false;
  for (auto& r : reactors_) {
    r->thread = std::thread([this, rp = r.get()] { reactor_main(*rp); });
  }
}

void node::stop() {
  if (reactors_.empty() || !reactors_[0]->thread.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_requested_ = true;
  }
  for (auto& r : reactors_) wake(*r);
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
}

void node::wake(reactor& r) {
  // A lost wakeup strands every task posted to this reactor until the
  // next epoll timeout: retry EINTR, and log anything else. EAGAIN is
  // benign -- the eventfd counter is saturated, so a wakeup is already
  // pending and the reactor cannot miss the queue.
  (current_reactor() == &r ? rm_[r.index].wakes_own
                            : rm_[r.index].wakes_other)
      ->inc();
  const std::uint64_t one = 1;
  for (;;) {
    const ssize_t n = ::write(r.event_fd.get(), &one, sizeof one);
    if (n == static_cast<ssize_t>(sizeof one)) return;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    LOG_WARN("%s: reactor %u wakeup write failed (%s); posted tasks may "
             "wait a full epoll timeout",
             to_string(self_).c_str(), r.index,
             n < 0 ? std::strerror(errno) : "short write");
    return;
  }
}

void node::post_to(reactor& r, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(r.q_mu);
    r.tasks.push_back(std::move(fn));
  }
  wake(r);
}

// ------------------------------------------------------------ actor steps --

void node::set_step_hook(std::size_t actor, step_fn hook) {
  actor_state& a = actor_at(actor);
  std::lock_guard<std::mutex> step(a.step_mu);
  a.step_hook = std::move(hook);
}

bool node::schedule_step(std::size_t actor) {
  actor_state& a = actor_at(actor);
  reactor& home = home_of(a);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!started_ || stop_requested_ || home.exited) return false;
  }
  // The flag clears BEFORE the step runs its hook, so a caller that finds
  // a step already queued is covered by it.
  if (a.step_scheduled.exchange(true)) return true;
  // Two pointers fit std::function's inline buffer: posting allocates
  // nothing on the session thread for the reactor to free.
  post_to(home, [this, &a] {
    a.step_scheduled = false;
    mark_step(home_of(a), a);
  });
  return true;
}

bool node::run_on_reactor(std::size_t actor, const step_fn& fn) {
  actor_state& a = actor_at(actor);
  reactor& home = home_of(a);
  auto done = std::make_shared<bool>(false);
  // The check and the post share mu_ with the reactor's exit, so the task
  // either lands before the exit discards the queue or is never posted.
  // Only a reactor that exited (or never started) refuses: a
  // stop-REQUESTED one may still be draining its queue.
  std::unique_lock<std::mutex> lk(mu_);
  if (!started_ || home.exited) return false;
  // fn is copied into the task: a task the exit discards is destroyed
  // unrun, possibly after this call returned.
  post_to(home, [this, &a, fn, done] {
    {
      std::lock_guard<std::mutex> step(a.step_mu);
      fn(*a.automaton_, a.port);
    }
    run_step_hook(a);
    {
      std::lock_guard<std::mutex> lk(mu_);
      *done = true;
    }
    cv_.notify_all();
  });
  cv_.wait(lk, [&] { return *done || home.exited; });
  return *done;
}

void node::run_step_hook(actor_state& a) {
  std::lock_guard<std::mutex> step(a.step_mu);
  if (a.step_hook) a.step_hook(*a.automaton_, a.port);
}

void node::mark_step(reactor& r, actor_state& a) {
  if (r.index != a.home_reactor) {
    run_step_hook(a);
    return;
  }
  if (a.hook_marked) return;
  a.hook_marked = true;
  r.marked.push_back(&a);
}

void node::run_marked_hooks(reactor& r) {
  // A hook never marks: marks come only from deliveries and tasks.
  for (actor_state* a : r.marked) {
    a->hook_marked = false;
    run_step_hook(*a);
  }
  r.marked.clear();
}

// ------------------------------------------------------------------ reactor --

void node::reactor_main(reactor& r) {
  // Every log line this thread emits is tagged with the node it serves;
  // the registry asserts no metric is created from this thread (handles
  // were all resolved in bind_node_metrics).
  log_set_node(to_string(self_));
  obs::registry::mark_hot_loop_thread(true);
  tls_reactor = &r;
  for (;;) {
    epoll_event events[64];
    // Do not block when a task is already queued: a post landing after
    // this iteration's task swap but before the eventfd drain below would
    // otherwise lose its wakeup (the drain eats the counter while the
    // task waits a full epoll timeout).
    int wait_ms = 50;
    {
      std::lock_guard<std::mutex> lk(r.q_mu);
      if (!r.tasks.empty()) wait_ms = 0;
    }
    // EINTR (or any other failure) yields n = -1: skip the dispatch loop
    // below rather than indexing events[] with garbage, but still run the
    // task drain -- a signal must not delay posted work.
    int n = ::epoll_wait(r.epoll_fd.get(), events, 64, wait_ms);
    rm_[r.index].epoll_waits->inc();
    if (n < 0) {
      if (errno != EINTR) {
        LOG_WARN("%s: reactor %u epoll_wait failed: %s",
                 to_string(self_).c_str(), r.index, std::strerror(errno));
      }
      n = 0;
    }
    // Drain posted tasks first (includes invocations and shipped sends).
    // The two vectors trade places, so both keep their capacity.
    {
      std::lock_guard<std::mutex> lk(r.q_mu);
      r.running.swap(r.tasks);
    }
    if (!r.running.empty()) {
      rm_[r.index].tasks_run->inc(
          static_cast<std::uint64_t>(r.running.size()));
    }
    for (auto& t : r.running) t();
    r.running.clear();
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stop_requested_) break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == r.event_fd.get()) {
        std::uint64_t buf;
        // One read returns and zeroes the whole (non-semaphore) counter;
        // a second would only fail with EAGAIN. Retry EINTR so the
        // counter actually drains (a level-triggered eventfd would re-fire
        // anyway, but burning an extra epoll pass per signal is
        // pointless).
        while (::read(r.event_fd.get(), &buf, sizeof buf) < 0 &&
               errno == EINTR) {
        }
        continue;
      }
      if (r.index == 0 && listen_fd_.valid() && fd == listen_fd_.get()) {
        while (auto accepted = accept_one(listen_fd_.get())) {
          rm_[0].accepts->inc();
          // Deal accepted connections round-robin across the pool; the
          // target reactor owns the connection for its whole life.
          const auto target = static_cast<std::uint32_t>(
              next_conn_rr_++ % reactors_.size());
          if (target == 0) {
            adopt_inbound(r, std::move(*accepted));
          } else {
            auto moved = std::make_shared<unique_fd>(std::move(*accepted));
            post_to(*reactors_[target], [this, target, moved] {
              adopt_inbound(*reactors_[target], std::move(*moved));
            });
          }
        }
        continue;
      }
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        close_conn(r, fd);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) handle_readable(r, fd);
      if ((events[i].events & EPOLLOUT) != 0) handle_writable(r, fd);
    }
    // One hook run per marked actor, after every frame the pass delivered:
    // a session takes all of the pass's completions and begins every op
    // admitted by then in one step, one batch frame per server.
    run_marked_hooks(r);
  }
  // The last pass ended at the stop check: a step its tasks marked still
  // gets its hook.
  run_marked_hooks(r);
  {
    std::lock_guard<std::mutex> lk(mu_);
    r.exited = true;
  }
  {
    // Undrained tasks never run: they must not fire on a later start()
    // (their captures may be long dead by then).
    std::lock_guard<std::mutex> lk(r.q_mu);
    r.tasks.clear();
  }
  cv_.notify_all();
  tls_reactor = nullptr;
}

void node::adopt_inbound(reactor& r, unique_fd fd) {
  const int cfd = fd.get();
  if (cfd < 0) return;  // raced with a shutdown path that closed it
  connection c;
  c.fd = std::move(fd);
  // Inbound traffic steps the node's primary automaton (servers host
  // exactly one); the client node never listens.
  c.owner = actors_.empty() ? nullptr : actors_[0].get();
  c.serial = next_conn_serial_.fetch_add(1, std::memory_order_relaxed);
  c.fault = default_fault_.load(std::memory_order_relaxed);
  c.epoll_mask = c.fault == conn_fault::pause ? 0u : EPOLLIN;
  epoll_event ev{};
  ev.events = c.epoll_mask;
  ev.data.fd = cfd;
  r.conns.emplace(cfd, std::move(c));
  rm_[r.index].connections->add(1);
  rm_[r.index].epoll_ctls->inc();
  ::epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_ADD, cfd, &ev);
}

void node::handle_readable(reactor& r, int fd) {
  auto it = r.conns.find(fd);
  if (it == r.conns.end()) return;
  // Reference (not iterator): stable across the insert-rehash a drain
  // callback can cause by opening a new outbound connection. Erasure of
  // THIS entry while the drain runs is deferred by close_conn (see the
  // drain_guard_fd comment there).
  auto& c = it->second;
  if (c.fault == conn_fault::pause) return;  // interest mask raced the fault
  // A short read emptied the socket: stop rather than spend a syscall on
  // EAGAIN. Epoll is level-triggered, so later bytes (or EOF) re-report.
  std::uint8_t buf[64 * 1024];
  if (c.fault == conn_fault::blackhole) {
    // Partitioned: drain the socket so the kernel buffer never fills,
    // discard everything (still detect EOF).
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      rm_[r.index].socket_reads->inc();
      if (n < 0 && errno == EINTR) continue;  // interrupted, not dead
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) {
        close_conn(r, fd);
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof buf) return;
    }
  }
  actor_state* owner = c.owner;
  FASTREG_CHECK(owner != nullptr);
  bool reset = false;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    rm_[r.index].socket_reads->inc();
    // EINTR is a signal, not a peer event: falling through to the n <= 0
    // branch here tore down a healthy connection on every stray SIGPROF/
    // SIGCHLD, surfacing as conn_resets under load. Retry instead.
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      close_conn(r, fd);
      break;
    }
    // Frames parse IN PLACE from the read buffer (only a trailing
    // partial frame is copied aside); the automaton steps run inside the
    // drain callback, so a burst of frames in one read is one pass over
    // the bytes. The step mutex is uncontended for client actors (their
    // whole data path lives on this reactor); it serializes a server
    // automaton stepped from several reactors.
    r.drain_guard_fd = fd;
    {
      std::lock_guard<std::mutex> step(owner->step_mu);
      c.in.drain(buf, static_cast<std::size_t>(n), [&](const frame& f) {
        wm_.frames_in->inc();
        // A server index at or beyond S names no process of this
        // deployment, and automata count acks by server index in a
        // server_set, whose insert rejects an index past its mask: such a
        // frame is malformed. Skip it and keep the stream.
        if (f.from.is_server() && f.from.index >= cfg_.S()) {
          wm_.malformed_frames->inc();
          return;
        }
        if (f.kind == frame_kind::hello) {
          c.peer = f.from;
          std::lock_guard<std::mutex> route(route_mu_);
          inbound_by_peer_[f.from] = conn_ref{r.index, fd, c.serial};
          return;
        }
        // Every other frame parse_one lets through is a non-empty batch:
        // one send, delivered as one step. Its messages are the
        // connection's kept ones, which the next frame decodes over: the
        // step must not keep a span of them.
        if (obs::recording_active()) {
          record_batch(*owner->rec, obs::rec_event::recv, f.from, f.msgs());
        }
        owner->automaton_->on_batch(owner->port, f.from, f.msgs());
      });
    }
    r.drain_guard_fd = -1;
    if (r.drain_close_pending || c.in.corrupt()) {
      reset = true;
      break;
    }
    if (static_cast<std::size_t>(n) < sizeof buf) break;
  }
  if (reset) {
    // Framing lost on this stream (frame_buffer's contract), or a send
    // inside the drain hit a fatal write error on this same socket: the
    // only safe recovery is a reset. The peer reconnects with fresh
    // framing state; undelivered messages are covered by the protocols'
    // quorum waits and the store's retry paths.
    r.drain_close_pending = false;
    wm_.conn_resets->inc();
    LOG_DEBUG("%s: resetting connection on fd %d (corrupt stream or "
              "write failure mid-drain)",
              to_string(self_).c_str(), fd);
    close_conn(r, fd);
  }
  // Even after a close: frames drained before it may have completed ops.
  mark_step(r, *owner);
}

void node::handle_writable(reactor& r, int fd) {
  auto it = r.conns.find(fd);
  if (it == r.conns.end()) return;
  it->second.connecting = false;
  flush(r, fd, it->second);
}

void node::flush(reactor& r, int fd, connection& c) {
  if (c.fault == conn_fault::pause) return;  // bytes hold until healed
  if (c.fault == conn_fault::blackhole) {
    const std::size_t b = c.out.bytes();
    if (b > 0) {
      wm_.backlog_bytes->add(-static_cast<std::int64_t>(b));
      c.out.consume(b);
    }
    update_epoll(r, fd, c);
    return;
  }
  const std::uint64_t flush_start = c.out.empty() ? 0 : steady_now_ns();
  while (!c.out.empty()) {
    struct iovec iov[16];
    const std::size_t cnt = c.out.fill_iovec(iov, 16);
    if (cnt == 0) break;  // only a not-yet-filled tail block: nothing queued
    // writev + MSG_NOSIGNAL: a reset peer gives EPIPE, not SIGPIPE.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    wm_.writev_calls->inc();
    if (n > 0) {
      // Possibly a SHORT write: consume() leaves the remainder (even
      // mid-block) at the chain's front and the next flush resumes there.
      wm_.bytes_out->inc(static_cast<std::uint64_t>(n));
      wm_.backlog_bytes->add(-static_cast<std::int64_t>(n));
      c.out.consume(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // interrupted write: retry
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_conn(r, fd);
    return;
  }
  if (flush_start != 0) wm_.flush_ns->observe(steady_now_ns() - flush_start);
  update_epoll(r, fd, c);
}

void node::update_epoll(reactor& r, int fd, connection& c) {
  std::uint32_t mask = 0;  // paused: no reads, no writes; bytes queue
  if (c.fault != conn_fault::pause) {
    mask = EPOLLIN | (c.connecting || c.out.bytes() > 0 ? EPOLLOUT : 0u);
  }
  if (mask == c.epoll_mask) return;
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = fd;
  rm_[r.index].epoll_ctls->inc();
  ::epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_MOD, fd, &ev);
  c.epoll_mask = mask;
}

void node::close_conn(reactor& r, int fd) {
  // An automaton step running inside handle_readable's drain can hit a
  // fatal write error on the very connection being drained (the server
  // answers over the inbound socket). Erasing it here would free the
  // frame_buffer mid-parse; defer -- handle_readable performs the close
  // as soon as the drain returns.
  if (fd == r.drain_guard_fd) {
    r.drain_close_pending = true;
    return;
  }
  auto it = r.conns.find(fd);
  if (it == r.conns.end()) return;
  if (it->second.peer) {
    // Only erase the route if it still points at THIS connection (the
    // peer may have reconnected already, on any reactor).
    std::lock_guard<std::mutex> route(route_mu_);
    if (auto rit = inbound_by_peer_.find(*it->second.peer);
        rit != inbound_by_peer_.end() &&
        rit->second.serial == it->second.serial) {
      inbound_by_peer_.erase(rit);
    }
  }
  // Actor out_to_server entries are NOT touched here: they are guarded
  // by the owning actor's step mutex, which this reactor may not take
  // mid-step. Stale refs are detected by serial mismatch at the next
  // send and lazily invalidated there.
  rm_[r.index].epoll_ctls->inc();
  ::epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_DEL, fd, nullptr);
  wm_.backlog_bytes->add(-static_cast<std::int64_t>(it->second.out.bytes()));
  rm_[r.index].connections->add(-1);
  r.conns.erase(it);  // unique_fd closes
}

// ------------------------------------------------------------------- faults --

void node::run_on_all_reactors(const std::function<void(reactor&)>& fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Not running: no reactor thread exists, so no connection exists
    // either (both inbound and outbound connections are created on
    // reactors). Nothing to apply to.
    if (!started_) return;
  }
  auto acked = std::make_shared<std::size_t>(0);
  for (auto& r : reactors_) {
    post_to(*r, [this, rp = r.get(), fn, acked] {
      fn(*rp);
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++*acked;
      }
      cv_.notify_all();
    });
  }
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] {
    std::size_t live = 0;
    for (const auto& r : reactors_) {
      if (!r->exited) ++live;
    }
    return *acked >= live;
  });
}

void node::set_fault_all(conn_fault f) {
  default_fault_.store(f, std::memory_order_relaxed);
  run_on_all_reactors([this, f](reactor& r) {
    // apply_fault can close connections (heal-after-blackhole resets);
    // iterate over a snapshot of fds and re-validate each.
    std::vector<int> fds;
    fds.reserve(r.conns.size());
    for (const auto& [fd, c] : r.conns) fds.push_back(fd);
    for (const int fd : fds) {
      if (auto it = r.conns.find(fd); it != r.conns.end()) {
        apply_fault(r, fd, it->second, f);
      }
    }
  });
}

void node::reset_all_conns() {
  run_on_all_reactors([this](reactor& r) {
    std::vector<int> fds;
    fds.reserve(r.conns.size());
    for (const auto& [fd, c] : r.conns) fds.push_back(fd);
    for (const int fd : fds) {
      if (r.conns.find(fd) != r.conns.end()) {
        wm_.conn_resets->inc();
        close_conn(r, fd);
      }
    }
  });
}

void node::apply_fault(reactor& r, int fd, connection& c, conn_fault f) {
  if (c.fault == f) return;
  const conn_fault prev = c.fault;
  c.fault = f;
  if (f == conn_fault::none) {
    if (prev == conn_fault::blackhole) {
      // Frames were dropped mid-stream; framing cannot resume. Reset --
      // the peer reconnects with fresh state.
      wm_.conn_resets->inc();
      close_conn(r, fd);
      return;
    }
    // Healing a pause: resume epoll interest and release the held bytes.
    update_epoll(r, fd, c);
    if (!c.connecting && c.out.bytes() > 0) flush(r, fd, c);
    return;
  }
  if (f == conn_fault::blackhole) {
    // Discard anything queued; reads and writes are dropped from here on.
    const std::size_t b = c.out.bytes();
    if (b > 0) {
      wm_.backlog_bytes->add(-static_cast<std::int64_t>(b));
      c.out.consume(b);
    }
  }
  update_epoll(r, fd, c);  // pause: interest mask 0; blackhole keeps EPOLLIN
}

// -------------------------------------------------------------- send path --

void node::actor_port::send(const process_id& to, message m) {
  const message* one = &m;
  n->send_from(*a, to, message_refs(&one, 1));
}

void node::actor_port::send_batch(const process_id& to,
                                  std::vector<message>& msgs) {
  a->refs.clear();
  for (const auto& m : msgs) a->refs.push_back(&m);
  n->send_from(*a, to, a->refs);
  // Encoded, shipped or dropped: the caller gets its buffer back empty,
  // with its capacity.
  msgs.clear();
}

void node::actor_port::send_borrowed(const process_id& to,
                                     message_refs msgs) {
  n->send_from(*a, to, msgs);
}

void node::send_from(actor_state& a, const process_id& to,
                     message_refs msgs) {
  FASTREG_EXPECTS(!msgs.empty());
  if (obs::recording_active()) {
    record_batch(*a.rec, obs::rec_event::send, to, msgs);
  }
  route_from(a, to, msgs);
}

void node::route_from(actor_state& a, const process_id& to,
                      message_refs msgs) {
  // Every step runs on one of this node's reactors: run_on_reactor never
  // runs one on its caller's thread.
  reactor* cur = current_reactor();
  FASTREG_CHECK(cur != nullptr);
  if (to.is_server()) {
    if (auto it = a.out_to_server.find(to.index);
        it != a.out_to_server.end()) {
      const conn_ref ref = it->second;
      if (ref.reactor != cur->index) {
        ship_to(ref, a, static_cast<int>(to.index), msgs);
        return;
      }
      if (auto cit = cur->conns.find(ref.fd);
          cit != cur->conns.end() && cit->second.serial == ref.serial) {
        queue_frames(*cur, ref.fd, cit->second, a.self, msgs);
        return;
      }
      // Stale (connection closed; fd possibly recycled): reconnect.
      a.out_to_server.erase(to.index);
    }
    const conn_ref ref = open_to_server(*cur, a, to.index);
    auto cit = cur->conns.find(ref.fd);
    FASTREG_CHECK(cit != cur->conns.end());
    queue_frames(*cur, ref.fd, cit->second, a.self, msgs);
    return;
  }
  // Replies to clients (or servers acting as clients of this server) go
  // over the connection they introduced themselves on.
  conn_ref ref{};
  bool found = false;
  {
    std::lock_guard<std::mutex> route(route_mu_);
    if (auto it = inbound_by_peer_.find(to); it != inbound_by_peer_.end()) {
      ref = it->second;
      found = true;
    }
  }
  if (!found) {
    LOG_DEBUG("%s: no route to %s; dropping frame",
              to_string(a.self).c_str(), to_string(to).c_str());
    return;
  }
  if (ref.reactor != cur->index) {
    ship_to(ref, a, /*server_index=*/-1, msgs);
    return;
  }
  if (auto cit = cur->conns.find(ref.fd);
      cit != cur->conns.end() && cit->second.serial == ref.serial) {
    queue_frames(*cur, ref.fd, cit->second, a.self, msgs);
    return;
  }
  LOG_DEBUG("%s: route to %s went away; dropping frame",
            to_string(a.self).c_str(), to_string(to).c_str());
}

void node::ship_to(const conn_ref& ref, actor_state& a, int server_index,
                   message_refs msgs) {
  // The connection lives on another reactor: the frames must be encoded
  // into its chain by the owning thread. Ship copies of the messages
  // over (the only copy on the send path: the caller's list is only lent
  // for this call); the serial check drops the frames rather than
  // landing them on a recycled fd.
  reactor& r = *reactors_[ref.reactor];
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (r.exited) return;
  }
  auto copies = std::make_shared<std::vector<message>>();
  copies->reserve(msgs.size());
  for (const message* m : msgs) copies->push_back(*m);
  post_to(r, [this, &a, ref, server_index, copies] {
    reactor& owner = *reactors_[ref.reactor];
    auto it = owner.conns.find(ref.fd);
    if (it == owner.conns.end() || it->second.serial != ref.serial) {
      // Dropped; protocols retry / quorum-cover the loss. Invalidate the
      // actor's stale server route so its next send reconnects.
      if (server_index >= 0) {
        std::lock_guard<std::mutex> step(a.step_mu);
        if (auto o =
                a.out_to_server.find(static_cast<std::uint32_t>(server_index));
            o != a.out_to_server.end() && o->second.serial == ref.serial) {
          a.out_to_server.erase(o);
        }
      }
      return;
    }
    rm_[owner.index].ships_in->inc();
    std::vector<const message*> refs;
    refs.reserve(copies->size());
    for (const auto& m : *copies) refs.push_back(&m);
    queue_frames(owner, ref.fd, it->second, a.self, refs);
  });
}

node::conn_ref node::open_to_server(reactor& r, actor_state& a,
                                    std::uint32_t index) {
  FASTREG_EXPECTS(index < book_->server_ports.size());
  unique_fd fd = connect_to(book_->server_ports[index]);
  const int raw = fd.get();
  connection c;
  c.fd = std::move(fd);
  c.connecting = true;
  c.owner = &a;
  c.serial = next_conn_serial_.fetch_add(1, std::memory_order_relaxed);
  c.fault = default_fault_.load(std::memory_order_relaxed);
  c.epoll_mask = c.fault == conn_fault::pause ? 0u : (EPOLLIN | EPOLLOUT);
  epoll_event ev{};
  ev.events = c.epoll_mask;
  ev.data.fd = raw;
  r.conns.emplace(raw, std::move(c));
  rm_[r.index].connections->add(1);
  rm_[r.index].epoll_ctls->inc();
  ::epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_ADD, raw, &ev);
  // Introduce the ACTOR (not the node: a client node hosts many) so the
  // server can route replies back. The hello must precede any frame on
  // this connection: it is appended first and leaves in the same writev
  // as the frames that triggered the connect.
  auto& cref = r.conns.find(raw)->second;
  append_hello_frame(cref.out.tail_for(64), a.self);
  wm_.frames_out->inc();
  wm_.backlog_bytes->add(static_cast<std::int64_t>(cref.out.bytes()));
  const conn_ref ref{r.index, raw, cref.serial};
  a.out_to_server[index] = ref;
  return ref;
}

void node::queue_frames(reactor& r, int fd, connection& c,
                        const process_id& from, message_refs msgs) {
  if (c.fault == conn_fault::blackhole) return;  // sent into the void
  const std::size_t before = c.out.bytes();
  // Encoded in place into the connection's chain, chunked so no frame
  // approaches frame_buffer::max_frame_bytes -- the receiver treats an
  // oversized frame as stream corruption and resets the connection,
  // which batching large values could otherwise trigger.
  constexpr std::size_t chunk_limit = frame_buffer::max_frame_bytes / 4;
  const auto append_chunk = [&](std::size_t begin, std::size_t end) {
    const message_refs chunk = msgs.subspan(begin, end - begin);
    append_batch_frame(c.out.tail_for(batch_frame_wire_size(chunk)), from,
                       chunk);
    wm_.frames_out->inc();
  };
  std::size_t begin = 0;
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const std::size_t sz = message_wire_size(*msgs[i]);
    if (i > begin && bytes + sz > chunk_limit) {
      append_chunk(begin, i);
      begin = i;
      bytes = 0;
    }
    bytes += sz;
  }
  append_chunk(begin, msgs.size());
  wm_.backlog_bytes->add(static_cast<std::int64_t>(c.out.bytes() - before));
  // A paused connection holds its bytes until apply_fault's heal flushes
  // them (flush returns early); a connecting one sends once writable.
  if (c.connecting) {
    update_epoll(r, fd, c);
  } else {
    flush(r, fd, c);
  }
}

}  // namespace fastreg::net
