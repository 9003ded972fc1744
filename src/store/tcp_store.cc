#include "store/tcp_store.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "common/check.h"

namespace fastreg::store {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

tcp_store::tcp_store(store_config cfg, net::node_options nopt,
                     net::cluster_options copt)
    : proto_(std::move(cfg)),
      cluster_(proto_.config().base, proto_, nopt, copt) {}

std::optional<std::vector<store_result>> tcp_store::run_ops(
    const process_id& client_pid,
    const std::vector<std::pair<std::string, value_t>>& kvs, bool is_put,
    std::chrono::milliseconds timeout) {
  FASTREG_EXPECTS(!kvs.empty());
  net::node& n = cluster_.client_node(client_pid);
  const std::size_t actor = cluster_.client_actor(client_pid);
  const std::uint64_t t0 = now_ns();
  // Keys whose previous op timed out and is still in flight cannot be
  // re-begun (precondition); skip them -- the call reports failure but
  // the process must not abort on the reactor thread.
  auto skipped = std::make_shared<std::vector<std::string>>();
  const bool wait_ok = n.blocking_op(
      actor,
      [&kvs, is_put, skipped](automaton& a, netout& net) {
        auto& c = dynamic_cast<client&>(a);
        for (const auto& [key, v] : kvs) {
          if (c.has_pending(key)) {
            skipped->push_back(key);
            continue;
          }
          if (is_put) {
            c.begin_put(key, v);
          } else {
            c.begin_get(key);
          }
        }
        c.flush(net);
      },
      timeout);
  // Harvest whatever completed, on the reactor thread so late server acks
  // cannot race the drain. The haul may include stale completions of ops
  // a previous timed-out call abandoned.
  std::vector<store_result> results;
  n.run_on_reactor(actor, [&results](automaton& a) {
    results = dynamic_cast<client&>(a).take_completions();
  });
  const std::uint64_t t1 = now_ns();

  // Log this call's started ops first (incomplete), remembering their
  // indices so stale completions can be told apart from fresh ones.
  // Skipped keys are NOT logged: no protocol op ran, and their abandoned
  // older entry is still the open op for that (client, key).
  std::vector<std::size_t> started;
  started.reserve(kvs.size());
  for (const auto& [key, v] : kvs) {
    if (std::find(skipped->begin(), skipped->end(), key) !=
        skipped->end()) {
      continue;
    }
    started.push_back(log_.open(client_pid, key, is_put, v, t0));
  }
  const auto closed = log_.close(client_pid, results, t1);
  std::vector<store_result> fresh;
  for (std::size_t k = 0; k < results.size(); ++k) {
    if (std::find(started.begin(), started.end(), closed[k]) !=
        started.end()) {
      fresh.push_back(std::move(results[k]));
    }
  }
  if (!wait_ok || !skipped->empty() || fresh.size() < started.size()) {
    return std::nullopt;
  }
  return fresh;
}

std::optional<store_result> tcp_store::get(std::uint32_t reader_index,
                                           const std::string& key,
                                           std::chrono::milliseconds timeout) {
  auto res = multi_get(reader_index, {key}, timeout);
  if (!res || res->empty()) return std::nullopt;
  return std::move(res->front());
}

bool tcp_store::put(std::uint32_t writer_index, const std::string& key,
                    value_t v, std::chrono::milliseconds timeout) {
  return multi_put(writer_index, {{key, std::move(v)}}, timeout);
}

std::optional<std::vector<store_result>> tcp_store::multi_get(
    std::uint32_t reader_index, const std::vector<std::string>& keys,
    std::chrono::milliseconds timeout) {
  std::vector<std::pair<std::string, value_t>> kvs;
  kvs.reserve(keys.size());
  for (const auto& k : keys) kvs.emplace_back(k, value_t{});
  return run_ops(reader_id(reader_index), kvs, /*is_put=*/false, timeout);
}

bool tcp_store::multi_put(
    std::uint32_t writer_index,
    const std::vector<std::pair<std::string, value_t>>& kvs,
    std::chrono::milliseconds timeout) {
  return run_ops(writer_id(writer_index), kvs, /*is_put=*/true, timeout)
      .has_value();
}

std::string tcp_store::scrape(std::uint32_t server_index,
                              std::chrono::milliseconds timeout) {
  FASTREG_EXPECTS(server_index < cluster_.book().server_ports.size());
  net::unique_fd fd =
      net::connect_to(cluster_.book().server_ports[server_index]);
  if (!fd.valid()) return {};
  // Introduce the scraper under a reader id far outside any real
  // configuration: the server routes the stats_ack back over the
  // connection this id said hello on, and no live reader's reply route
  // is disturbed.
  const process_id scraper = reader_id(1'000'000u + server_index);
  auto bytes = net::encode_hello(scraper);
  message req;
  req.type = msg_type::stats_req;
  req.rcounter = 1;
  const auto frame = net::encode_msg_frame(scraper, req);
  bytes.insert(bytes.end(), frame.begin(), frame.end());

  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const auto remaining_ms = [&]() -> int {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    return static_cast<int>(std::max<std::int64_t>(0, left.count()));
  };

  // Non-blocking connect: wait for writability, then push the request.
  std::size_t off = 0;
  while (off < bytes.size()) {
    pollfd p{fd.get(), POLLOUT, 0};
    const int pr = ::poll(&p, 1, remaining_ms());
    if (pr <= 0) return {};
    const ssize_t n = ::send(fd.get(), bytes.data() + off,
                             bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    return {};
  }

  net::frame_buffer in;
  std::string dump;
  bool got = false;
  while (!got) {
    pollfd p{fd.get(), POLLIN, 0};
    const int pr = ::poll(&p, 1, remaining_ms());
    if (pr <= 0) return {};
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::read(fd.get(), buf, sizeof buf);
    if (n == 0) return {};  // server closed without answering
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return {};
    }
    in.drain(buf, static_cast<std::size_t>(n), [&](net::frame&& f) {
      if (f.kind == net::frame_kind::msg && f.msg.has_value() &&
          f.msg->type == msg_type::stats_ack) {
        dump = std::move(f.msg->val);
        got = true;
      }
    });
    if (in.corrupt()) return {};
  }
  return dump;
}

}  // namespace fastreg::store
