// One-op and one-batch wrappers over store::submit_and_drain, so tests
// read as "put this, get that" on either transport.
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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

}  // namespace fastreg::store::test
