// One-op and one-batch wrappers over store::submit_and_drain, so tests
// read as "put this, get that" on either transport; and the one-register
// deployment (a one-shard store) with a blocking client per process.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "store/async_client.h"

namespace fastreg::store::test {

inline bool put_one(
    store_frontend& fe, std::uint32_t writer, std::string key, value_t v,
    std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  const store_op op{std::move(key), /*is_put=*/true, std::move(v)};
  return submit_and_drain(fe, writer_id(writer), {&op, 1}, timeout)
      .has_value();
}

inline std::optional<store_result> get_one(
    store_frontend& fe, std::uint32_t reader, std::string key,
    std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  const store_op op{std::move(key), /*is_put=*/false, {}};
  auto res = submit_and_drain(fe, reader_id(reader), {&op, 1}, timeout);
  if (!res) return std::nullopt;
  return std::move(res->front());
}

/// Reads distinct `keys` in one session: k submits, one drain.
inline std::optional<std::vector<store_result>> get_many(
    store_frontend& fe, std::uint32_t reader,
    const std::vector<std::string>& keys,
    std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  std::vector<store_op> ops;
  ops.reserve(keys.size());
  for (const auto& k : keys) ops.push_back(store_op{k, /*is_put=*/false, {}});
  return submit_and_drain(fe, reader_id(reader), ops, timeout);
}

/// One register deployed as a store: a single shard running `proto`.
inline store_config one_register(system_config base, std::string proto) {
  store_config cfg;
  cfg.base = std::move(base);
  cfg.shard_protocols = {std::move(proto)};
  return cfg;
}

/// The key every register_client uses by default.
inline constexpr const char* k_register_key = "reg";

/// One client's depth-1 session on one key, reused across ops: write()
/// and read() submit one op and drain it, a blocking register call.
class register_client {
 public:
  register_client(store_frontend& fe, const process_id& client,
                  std::string key = k_register_key)
      : session_(fe.open_session(client, 1)), key_(std::move(key)) {}

  bool write(value_t v,
             std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    return run(/*is_put=*/true, std::move(v), timeout).has_value();
  }
  std::optional<store_result> read(
      std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    return run(/*is_put=*/false, {}, timeout);
  }

 private:
  std::optional<store_result> run(bool is_put, value_t v,
                                  std::chrono::milliseconds timeout) {
    const bool admitted = is_put ? session_->put(key_, std::move(v), timeout)
                                 : session_->get(key_, timeout);
    if (!admitted || !session_->drain(timeout)) return std::nullopt;
    auto done = session_->take_results();
    FASTREG_CHECK(done.size() == 1);
    return std::move(done.front());
  }

  std::unique_ptr<async_session> session_;
  std::string key_;
};

}  // namespace fastreg::store::test
