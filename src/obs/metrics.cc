#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>

#include "common/check.h"

namespace fastreg::obs {

namespace {

// Hot-loop registration contract (see registry::mark_hot_loop_thread):
// reactor threads set `hot_loop_thread`; series creation on them is a
// bug.
thread_local bool hot_loop_thread = false;

void check_creation_allowed() { FASTREG_CHECK(!hot_loop_thread); }

}  // namespace

void registry::mark_hot_loop_thread(bool hot) { hot_loop_thread = hot; }

// ---------------------------------------------------------------- counter --

std::atomic<std::uint64_t>& counter::cell_for_thread() {
  // A per-thread stable shard index: hashing the address of a
  // thread_local spreads threads across cells without any registration.
  static thread_local const std::uint8_t slot_anchor = 0;
  const auto h = reinterpret_cast<std::uintptr_t>(&slot_anchor);
  return cells_[(h >> 6) % k_shards].v;
}

// -------------------------------------------------------------- histogram --

std::size_t histogram::bucket_index(std::uint64_t v) {
  if (v == 0) return 0;
  const auto octave =
      static_cast<std::size_t>(std::bit_width(v)) - 1;  // floor(log2 v)
  const std::size_t sub =
      octave >= k_sub_bits
          ? (v >> (octave - k_sub_bits)) & ((1u << k_sub_bits) - 1)
          : (v << (k_sub_bits - octave)) & ((1u << k_sub_bits) - 1);
  return 1 + (octave << k_sub_bits) + sub;
}

std::uint64_t histogram::bucket_value(std::size_t idx) {
  if (idx == 0) return 0;
  const std::size_t octave = (idx - 1) >> k_sub_bits;
  const std::size_t sub = (idx - 1) & ((1u << k_sub_bits) - 1);
  if (octave < k_sub_bits) {
    // Tiny octaves have fewer than 8 representable values; undo the
    // left shift bucket_index applied.
    return (1ull << octave) | (sub >> (k_sub_bits - octave));
  }
  const std::uint64_t lo =
      (1ull << octave) | (static_cast<std::uint64_t>(sub)
                          << (octave - k_sub_bits));
  const std::uint64_t width = 1ull << (octave - k_sub_bits);
  return lo + width / 2;
}

void histogram::observe(std::uint64_t v) {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  // Racy min/max CAS loops: losing a race to an equal-or-better bound
  // is fine.
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t histogram::min() const {
  const auto m = min_.load(std::memory_order_relaxed);
  return m == ~0ull ? 0 : m;
}

std::uint64_t histogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  // Rank of the target sample (1-based, nearest-rank).
  const auto rank = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(n - 1) + 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < k_buckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      const std::uint64_t v = bucket_value(i);
      return std::clamp(v, min(), max());
    }
  }
  return max();
}

void histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// --------------------------------------------------------------- registry --

namespace {

std::string series_key(std::string_view name, std::string_view labels) {
  std::string key(name);
  if (!labels.empty()) {
    key += '{';
    key += labels;
    key += '}';
  }
  return key;
}

/// `name_suffix{labels}` for histogram expansion rows.
std::string suffixed(const std::string& key, std::string_view suffix) {
  const auto brace = key.find('{');
  if (brace == std::string::npos) return key + std::string(suffix);
  std::string out = key.substr(0, brace);
  out += suffix;
  out += key.substr(brace);
  return out;
}

std::string format_value(double v) {
  // Integral values (the overwhelming majority) print without a
  // fractional part so dumps stay diff-friendly.
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

struct registry::impl {
  mutable std::mutex mu;
  // Node-based storage (deque) keeps handles stable; the maps only hold
  // indices. Lookup cost is irrelevant -- callers cache the handle.
  std::map<std::string, std::size_t> counter_idx;
  std::map<std::string, std::size_t> gauge_idx;
  std::map<std::string, std::size_t> hist_idx;
  std::deque<counter> counters;
  std::deque<gauge> gauges;
  std::deque<histogram> hists;
};

registry::impl& registry::self() const {
  static impl i;
  return i;
}

registry& registry::instance() {
  static registry r;
  return r;
}

counter& registry::get_counter(std::string_view name,
                               std::string_view labels) {
  auto& s = self();
  std::lock_guard<std::mutex> lk(s.mu);
  const auto key = series_key(name, labels);
  const auto it = s.counter_idx.find(key);
  if (it != s.counter_idx.end()) return s.counters[it->second];
  check_creation_allowed();
  s.counters.emplace_back();
  s.counter_idx.emplace(key, s.counters.size() - 1);
  return s.counters.back();
}

gauge& registry::get_gauge(std::string_view name, std::string_view labels) {
  auto& s = self();
  std::lock_guard<std::mutex> lk(s.mu);
  const auto key = series_key(name, labels);
  const auto it = s.gauge_idx.find(key);
  if (it != s.gauge_idx.end()) return s.gauges[it->second];
  check_creation_allowed();
  s.gauges.emplace_back();
  s.gauge_idx.emplace(key, s.gauges.size() - 1);
  return s.gauges.back();
}

histogram& registry::get_histogram(std::string_view name,
                                   std::string_view labels) {
  auto& s = self();
  std::lock_guard<std::mutex> lk(s.mu);
  const auto key = series_key(name, labels);
  const auto it = s.hist_idx.find(key);
  if (it != s.hist_idx.end()) return s.hists[it->second];
  check_creation_allowed();
  s.hists.emplace_back();
  s.hist_idx.emplace(key, s.hists.size() - 1);
  return s.hists.back();
}

std::vector<sample> registry::snapshot() const {
  auto& s = self();
  std::lock_guard<std::mutex> lk(s.mu);
  std::vector<sample> out;
  out.reserve(s.counter_idx.size() + s.gauge_idx.size() +
              s.hist_idx.size() * 5);
  for (const auto& [key, idx] : s.counter_idx) {
    out.push_back({key, static_cast<double>(s.counters[idx].value()),
                   metric_kind::counter, true});
  }
  for (const auto& [key, idx] : s.gauge_idx) {
    out.push_back({key, static_cast<double>(s.gauges[idx].value()),
                   metric_kind::gauge, false});
  }
  for (const auto& [key, idx] : s.hist_idx) {
    const auto& h = s.hists[idx];
    out.push_back({suffixed(key, "_count"), static_cast<double>(h.count()),
                   metric_kind::histogram, true});
    out.push_back({suffixed(key, "_sum"), static_cast<double>(h.sum()),
                   metric_kind::histogram, true});
    out.push_back({suffixed(key, "_p50"),
                   static_cast<double>(h.percentile(50)),
                   metric_kind::histogram, false});
    out.push_back({suffixed(key, "_p99"),
                   static_cast<double>(h.percentile(99)),
                   metric_kind::histogram, false});
    out.push_back({suffixed(key, "_max"), static_cast<double>(h.max()),
                   metric_kind::histogram, false});
  }
  std::sort(out.begin(), out.end(),
            [](const sample& a, const sample& b) { return a.name < b.name; });
  return out;
}

std::string registry::render_text() const {
  return render_samples(snapshot());
}

void registry::reset() {
  auto& s = self();
  std::lock_guard<std::mutex> lk(s.mu);
  for (auto& c : s.counters) c.reset();
  for (auto& g : s.gauges) g.reset();
  for (auto& h : s.hists) h.reset();
}

std::vector<sample> snapshot() { return registry::instance().snapshot(); }
std::string render_text() { return registry::instance().render_text(); }
void reset_metrics() { registry::instance().reset(); }

std::vector<sample> diff_snapshot(const std::vector<sample>& cur,
                                  const std::vector<sample>& prev) {
  // Merge-walk two name-sorted snapshots. Series present only in prev
  // were reset away (the registry never unregisters) -- skip them.
  std::vector<sample> out;
  out.reserve(cur.size());
  std::size_t j = 0;
  for (const auto& c : cur) {
    while (j < prev.size() && prev[j].name < c.name) ++j;
    sample row = c;
    if (c.cumulative && j < prev.size() && prev[j].name == c.name) {
      row.value = c.value - prev[j].value;
    }
    out.push_back(std::move(row));
  }
  return out;
}

double series_sum(const std::vector<sample>& rows, std::string_view name,
                  std::string_view label_substring) {
  double total = 0;
  for (const auto& row : rows) {
    const std::string_view full = row.name;
    const auto brace = full.find('{');
    if (full.substr(0, brace) != name) continue;
    if (!label_substring.empty() &&
        (brace == std::string_view::npos ||
         full.find(label_substring, brace) == std::string_view::npos)) {
      continue;
    }
    total += row.value;
  }
  return total;
}

std::string render_samples(const std::vector<sample>& rows) {
  std::string out;
  for (const auto& row : rows) {
    out += row.name;
    out += ' ';
    out += format_value(row.value);
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------- dump grammar --

namespace {

bool ident_start(char c) {
  return (std::isalpha(static_cast<unsigned char>(c)) != 0) || c == '_';
}
bool ident_char(char c) {
  return ident_start(c) ||
         (std::isdigit(static_cast<unsigned char>(c)) != 0) || c == ':';
}

/// Parses one `name{key="value",...} number` line; empty string on
/// success, error description otherwise.
std::string check_line(std::string_view line) {
  std::size_t i = 0;
  if (line.empty() || !ident_start(line[0])) return "expected metric name";
  while (i < line.size() && ident_char(line[i])) ++i;
  if (i < line.size() && line[i] == '{') {
    ++i;
    bool first = true;
    while (true) {
      if (i >= line.size()) return "unterminated label set";
      if (line[i] == '}') {
        if (first) return "empty label set";
        ++i;
        break;
      }
      if (!first) {
        if (line[i] != ',') return "expected ',' between labels";
        ++i;
      }
      if (i >= line.size() || !ident_start(line[i])) {
        return "expected label name";
      }
      while (i < line.size() && ident_char(line[i])) ++i;
      if (i >= line.size() || line[i] != '=') return "expected '='";
      ++i;
      if (i >= line.size() || line[i] != '"') return "expected '\"'";
      ++i;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') ++i;  // escaped char
        ++i;
      }
      if (i >= line.size()) return "unterminated label value";
      ++i;  // closing quote
      first = false;
    }
  }
  if (i >= line.size() || line[i] != ' ') {
    return "expected ' ' before value";
  }
  ++i;
  if (i >= line.size()) return "missing value";
  std::size_t digits = 0;
  if (line[i] == '-') ++i;
  while (i < line.size() &&
         std::isdigit(static_cast<unsigned char>(line[i])) != 0) {
    ++i;
    ++digits;
  }
  if (i < line.size() && line[i] == '.') {
    ++i;
    while (i < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
      ++digits;
    }
  }
  // Scientific notation from %.6g on very large values.
  if (digits > 0 && i < line.size() && (line[i] == 'e' || line[i] == 'E')) {
    ++i;
    if (i < line.size() && (line[i] == '+' || line[i] == '-')) ++i;
    std::size_t exp_digits = 0;
    while (i < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
      ++exp_digits;
    }
    if (exp_digits == 0) return "malformed exponent";
  }
  if (digits == 0) return "malformed value";
  if (i != line.size()) return "trailing garbage after value";
  return {};
}

}  // namespace

std::string validate_dump(std::string_view text) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    const auto line = text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    ++line_no;
    if (!line.empty()) {
      const auto err = check_line(line);
      if (!err.empty()) {
        return "line " + std::to_string(line_no) + ": " + err + ": '" +
               std::string(line) + "'";
      }
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return {};
}

}  // namespace fastreg::obs
