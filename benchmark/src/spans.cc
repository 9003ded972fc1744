#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "stats.h"

namespace fastreg::bench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t span_lane::begin(const char* name, std::uint64_t parent,
                               std::uint64_t op) {
  span s;
  s.name = name;
  s.start_ns = now_ns();
  s.id = (static_cast<std::uint64_t>(index_) << 32) | (spans_.size() + 1);
  s.parent = parent;
  s.op = op;
  s.lane = index_;
  spans_.push_back(s);
  return s.id;
}

void span_lane::end(std::uint64_t id) {
  spans_[(id & 0xffffffffu) - 1].end_ns = now_ns();
}

span_lane* span_log::add_lane() {
  lanes_.push_back(
      std::make_unique<span_lane>(static_cast<std::uint32_t>(lanes_.size())));
  return lanes_.back().get();
}

std::vector<span> span_log::all() const {
  std::vector<span> out;
  for (const auto& l : lanes_) {
    out.insert(out.end(), l->spans().begin(), l->spans().end());
  }
  return out;
}

std::vector<std::uint64_t> self_times(const std::vector<span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index.find(spans[i].parent);
    if (it != index.end()) children[it->second].push_back(i);
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
    for (const std::size_t c : children[i]) {
      const std::uint64_t a = std::max(spans[c].start_ns, s.start_ns);
      const std::uint64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      const std::uint64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    self[i] = dur - std::min(dur, covered);
  }
  return self;
}

std::vector<span_summary> summarize(const std::vector<span>& spans) {
  const auto self = self_times(spans);
  std::vector<span_summary> out;
  std::unordered_map<std::string, std::size_t> at;
  std::vector<std::vector<std::uint64_t>> durs;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto [it, fresh] = at.try_emplace(spans[i].name, out.size());
    if (fresh) {
      out.push_back({spans[i].name, 0, 0, 0, 0});
      durs.emplace_back();
    }
    auto& sum = out[it->second];
    const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    ++sum.count;
    sum.total_ms += static_cast<double>(dur) / 1e6;
    sum.self_ms += static_cast<double>(self[i]) / 1e6;
    durs[it->second].push_back(dur);
  }
  for (std::size_t k = 0; k < out.size(); ++k) {
    std::sort(durs[k].begin(), durs[k].end());
    out[k].p50_us = percentile(durs[k], 50) / 1e3;
  }
  return out;
}

std::string to_catapult(const std::vector<span>& spans) {
  std::uint64_t origin = ~0ull;
  for (const auto& s : spans) origin = std::min(origin, s.start_ns);
  std::string out = "[";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    std::snprintf(
        buf, sizeof buf,
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
        "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu,"
        "\"op\":%llu}}",
        i == 0 ? "" : ",", s.name,
        static_cast<double>(s.start_ns - origin) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.lane,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.op));
    out += buf;
  }
  out += "\n]\n";
  return out;
}

}  // namespace fastreg::bench
