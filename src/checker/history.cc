#include "checker/history.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace fastreg::checker {

namespace {
using client_op = std::pair<process_id, std::size_t>;
}  // namespace

std::size_t history::begin_op(const process_id& client, bool is_write,
                              std::uint64_t invoke_time,
                              value_t written_value, std::uint64_t trace) {
  // Well-formedness: a client has at most one outstanding op.
  const auto last = std::ranges::find(last_op_, client, &client_op::first);
  if (last != last_op_.end()) {
    FASTREG_EXPECTS(ops_[last->second].response_time.has_value());
    last->second = ops_.size();
  } else {
    last_op_.emplace_back(client, ops_.size());
  }
  op_record rec;
  rec.client = client;
  rec.is_write = is_write;
  rec.invoke_time = invoke_time;
  rec.val = std::move(written_value);
  rec.trace = trace;
  ops_.push_back(std::move(rec));
  return ops_.size() - 1;
}

void history::complete_read(std::size_t index, std::uint64_t response_time,
                            ts_t ts, std::int32_t wid, value_t returned,
                            int rounds) {
  FASTREG_EXPECTS(index < ops_.size());
  auto& op = ops_[index];
  FASTREG_EXPECTS(!op.is_write && !op.response_time.has_value());
  FASTREG_EXPECTS(response_time >= op.invoke_time);
  op.response_time = response_time;
  op.ts = ts;
  op.wid = wid;
  op.val = std::move(returned);
  FASTREG_EXPECTS(std::in_range<std::int16_t>(rounds));
  op.rounds = static_cast<std::int16_t>(rounds);
}

void history::complete_write(std::size_t index, std::uint64_t response_time,
                             int rounds) {
  FASTREG_EXPECTS(index < ops_.size());
  auto& op = ops_[index];
  FASTREG_EXPECTS(op.is_write && !op.response_time.has_value());
  FASTREG_EXPECTS(response_time >= op.invoke_time);
  op.response_time = response_time;
  FASTREG_EXPECTS(std::in_range<std::int16_t>(rounds));
  op.rounds = static_cast<std::int16_t>(rounds);
}

std::optional<std::size_t> history::open_op(const process_id& client) const {
  const auto last = std::ranges::find(last_op_, client, &client_op::first);
  if (last == last_op_.end() || ops_[last->second].response_time) {
    return std::nullopt;
  }
  return last->second;
}

void history::sort_by_invoke_time() {
  const auto by_invoke = [](const op_record& a, const op_record& b) {
    return a.invoke_time < b.invoke_time;
  };
  if (std::is_sorted(ops_.begin(), ops_.end(), by_invoke)) return;
  std::stable_sort(ops_.begin(), ops_.end(), by_invoke);
  for (auto& [c, last] : last_op_) {
    for (std::size_t i = ops_.size(); i-- > 0;) {
      if (ops_[i].client == c) {
        last = i;
        break;
      }
    }
  }
}

std::vector<op_record> history::writes_by(const process_id& client) const {
  std::vector<op_record> out;
  for (const auto& op : ops_) {
    if (op.is_write && op.client == client && op.response_time) {
      out.push_back(op);
    }
  }
  return out;
}

std::vector<op_record> history::all_writes() const {
  std::vector<op_record> out;
  for (const auto& op : ops_) {
    if (op.is_write) out.push_back(op);
  }
  return out;
}

std::vector<op_record> history::completed_reads() const {
  std::vector<op_record> out;
  for (const auto& op : ops_) {
    if (!op.is_write && op.response_time) out.push_back(op);
  }
  return out;
}

std::string history::dump() const {
  std::string out;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const auto& op = ops_[i];
    out += std::to_string(i) + ": " + to_string(op.client);
    out += op.is_write ? " write(" : " read -> (";
    out += "ts=" + std::to_string(op.ts) + ", val=\"" + op.val + "\")";
    out += " [" + std::to_string(op.invoke_time) + ", ";
    out += op.response_time ? std::to_string(*op.response_time) : "inf";
    out += ") rounds=" + std::to_string(op.rounds) + "\n";
  }
  return out;
}

}  // namespace fastreg::checker
