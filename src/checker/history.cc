#include "checker/history.h"

#include <algorithm>

#include "common/check.h"

namespace fastreg::checker {

std::size_t history::begin_op(const process_id& client, bool is_write,
                              std::uint64_t invoke_time,
                              value_t written_value) {
  // Well-formedness: a client has at most one outstanding op.
  if (auto it = last_op_.find(client); it != last_op_.end()) {
    FASTREG_EXPECTS(ops_[it->second].response_time.has_value());
  }
  last_op_[client] = ops_.size();
  op_record rec;
  rec.client = client;
  rec.is_write = is_write;
  rec.invoke_time = invoke_time;
  rec.val = std::move(written_value);
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
  op.rounds = rounds;
}

void history::complete_write(std::size_t index, std::uint64_t response_time,
                             int rounds) {
  FASTREG_EXPECTS(index < ops_.size());
  auto& op = ops_[index];
  FASTREG_EXPECTS(op.is_write && !op.response_time.has_value());
  FASTREG_EXPECTS(response_time >= op.invoke_time);
  op.response_time = response_time;
  op.rounds = rounds;
}

std::optional<std::size_t> history::open_op(const process_id& client) const {
  const auto it = last_op_.find(client);
  if (it == last_op_.end() || ops_[it->second].response_time) {
    return std::nullopt;
  }
  return it->second;
}

void history::sort_by_invoke_time() {
  const auto by_invoke = [](const op_record& a, const op_record& b) {
    return a.invoke_time < b.invoke_time;
  };
  if (std::is_sorted(ops_.begin(), ops_.end(), by_invoke)) return;
  std::stable_sort(ops_.begin(), ops_.end(), by_invoke);
  last_op_.clear();
  for (std::size_t i = 0; i < ops_.size(); ++i) last_op_[ops_[i].client] = i;
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
