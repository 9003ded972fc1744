#include "store/tcp_store.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <span>
#include <utility>

#include "common/check.h"

namespace fastreg::store {

tcp_store::tcp_store(store_config cfg, net::node_options nopt,
                     net::cluster_options copt)
    : proto_(std::move(cfg)),
      cluster_(proto_.config().base, proto_, nopt, copt) {}

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
  const auto frame =
      net::encode_batch_frame(scraper, std::span<const message>(&req, 1));
  bytes.insert(bytes.end(), frame.begin(), frame.end());

  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const auto remaining_ms = [&]() -> int {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    return static_cast<int>(std::max<std::int64_t>(0, left.count()));
  };

  // A signal landing in poll, send or read is not a failure: retry, with
  // the time left recomputed on every pass.
  const auto wait_for = [&](short events) {
    for (;;) {
      pollfd p{fd.get(), events, 0};
      const int pr = ::poll(&p, 1, remaining_ms());
      if (pr > 0) return true;
      if (pr == 0 || errno != EINTR) return false;
    }
  };
  const auto retry = [](ssize_t n) {
    return n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK);
  };

  // Non-blocking connect: wait for writability, then push the request.
  std::size_t off = 0;
  while (off < bytes.size()) {
    if (!wait_for(POLLOUT)) return {};
    const ssize_t n = ::send(fd.get(), bytes.data() + off,
                             bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (retry(n)) continue;
    return {};
  }

  net::frame_buffer in;
  std::string dump;
  bool got = false;
  while (!got) {
    if (!wait_for(POLLIN)) return {};
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::read(fd.get(), buf, sizeof buf);
    if (n == 0) return {};  // server closed without answering
    if (n < 0) {
      if (retry(n)) continue;
      return {};
    }
    in.drain(buf, static_cast<std::size_t>(n), [&](net::frame&& f) {
      for (auto& m : f.batch) {
        if (m.type == msg_type::stats_ack) {
          dump = std::move(m.val);
          got = true;
        }
      }
    });
    if (in.corrupt()) return {};
  }
  return dump;
}

}  // namespace fastreg::store
