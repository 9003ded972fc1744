#include "obs/recorder.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include "common/clock.h"
#include "common/log.h"

namespace fastreg::obs {

namespace detail {
// Strict parsing: a value that asks for something other than recording
// must say so instead of silently recording nothing. The warning bypasses
// the log level (off by default).
std::atomic<bool> recording_on{[] {
  const char* v = std::getenv("FASTREG_OBS");
  if (v == nullptr || *v == '\0') return false;
  if (std::strcmp(v, "record") == 0) return true;
  log_write(log_level::warn, __FILE__, __LINE__,
            fastreg::detail::log_format(
                "ignoring FASTREG_OBS=\"%s\" (the accepted value is "
                "\"record\"); the flight recorder stays off",
                v));
  return false;
}()};
}  // namespace detail

void set_recording(bool on) {
  detail::recording_on.store(on, std::memory_order_relaxed);
}

// ------------------------------------------------------------------ clock --

namespace {
thread_local std::uint64_t t_time = 0;
thread_local bool t_time_set = false;
}  // namespace

scoped_trace_time::scoped_trace_time(std::uint64_t t)
    : prev_(t_time), had_prev_(t_time_set) {
  t_time = t;
  t_time_set = true;
}
scoped_trace_time::~scoped_trace_time() {
  t_time = prev_;
  t_time_set = had_prev_;
}

std::uint64_t trace_now() {
  return t_time_set ? t_time : steady_now_ns();
}

bool trace_time_overridden() { return t_time_set; }

// -------------------------------------------------------------- trace ids --

namespace {
std::atomic<std::uint64_t> g_next_trace{1};
}  // namespace

std::uint64_t next_trace_id() {
  return g_next_trace.fetch_add(1, std::memory_order_relaxed);
}

// ----------------------------------------------------------------- events --

const char* to_string(rec_event e) {
  switch (e) {
    case rec_event::send:
      return "send";
    case rec_event::recv:
      return "recv";
    case rec_event::serve:
      return "serve";
    case rec_event::nack:
      return "nack";
    case rec_event::park:
      return "park";
    case rec_event::resume:
      return "resume";
    case rec_event::fence:
      return "fence";
  }
  return "?";
}

// ------------------------------------------------------------------- ring --

// Seqlock slot: `stamp` holds the 1-based claim sequence (0 = never
// written; a changed stamp across a reader's copy = torn). All payload
// words are relaxed atomics so concurrent record/dump never races.
struct alignas(64) recorder::slot {
  std::atomic<std::uint64_t> stamp{0};
  std::atomic<std::uint64_t> t{0};
  std::atomic<std::uint64_t> trace{0};
  std::atomic<std::uint64_t> obj{0};
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::uint64_t> ts{0};
  // span(16) << 24 | ev(8) << 16 | mtype(8) << 8 | dom(1)
  std::atomic<std::uint64_t> meta{0};
  // role(8) << 32 | index(32)
  std::atomic<std::uint64_t> peer{0};
};

namespace {

constexpr std::size_t k_default_ring = 4096;
/// 2^24 slots of 64 bytes is a 1 GiB ring per node: anything larger is a
/// typo, not a sizing decision.
constexpr unsigned long k_max_ring = 1ul << 24;

std::size_t ring_capacity_from_env() {
  const char* v = std::getenv("FASTREG_OBS_RING");
  if (v == nullptr || *v == '\0') return k_default_ring;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(v, &end, 10);
  if (end != v && *end == '\0' && parsed > 0 && parsed <= k_max_ring) {
    return parsed;
  }
  log_write(log_level::warn, __FILE__, __LINE__,
            fastreg::detail::log_format(
                "ignoring malformed FASTREG_OBS_RING=\"%s\" (expected a "
                "slot count in 1..%lu); using %zu slots",
                v, k_max_ring, k_default_ring));
  return k_default_ring;
}

}  // namespace

recorder::recorder(std::size_t capacity)
    : slots_(std::bit_ceil(capacity < 64 ? std::size_t{64} : capacity)),
      mask_(slots_.size() - 1) {}

recorder::~recorder() = default;

std::size_t recorder::capacity() const { return slots_.size(); }

void recorder::record(rec_event ev, std::uint64_t trace, std::uint16_t span,
                      std::uint8_t mtype, const process_id& peer,
                      object_id obj, epoch_t epoch, ts_t ts) {
  const std::uint64_t seq =
      head_.fetch_add(1, std::memory_order_relaxed) + 1;
  slot& s = slots_[(seq - 1) & mask_];
  // Invalidate, fill relaxed, then publish: a reader that observes the
  // final stamp and re-reads it unchanged saw a consistent payload.
  s.stamp.store(0, std::memory_order_release);
  s.t.store(trace_now(), std::memory_order_relaxed);
  s.trace.store(trace, std::memory_order_relaxed);
  s.obj.store(obj, std::memory_order_relaxed);
  s.epoch.store(epoch, std::memory_order_relaxed);
  s.ts.store(static_cast<std::uint64_t>(ts), std::memory_order_relaxed);
  const std::uint64_t dom = trace_time_overridden() ? 1 : 0;
  s.meta.store((static_cast<std::uint64_t>(span) << 24) |
                   (static_cast<std::uint64_t>(ev) << 16) |
                   (static_cast<std::uint64_t>(mtype) << 8) | dom,
               std::memory_order_relaxed);
  s.peer.store((static_cast<std::uint64_t>(peer.r) << 32) | peer.index,
               std::memory_order_relaxed);
  s.stamp.store(seq, std::memory_order_release);
}

std::vector<rec_entry> recorder::entries(
    std::optional<object_id> only_obj) const {
  struct snap {
    std::uint64_t seq;
    rec_entry e;
  };
  std::vector<snap> snaps;
  snaps.reserve(slots_.size());
  for (const slot& s : slots_) {
    const std::uint64_t before = s.stamp.load(std::memory_order_acquire);
    if (before == 0) continue;
    rec_entry e;
    e.t = s.t.load(std::memory_order_relaxed);
    e.trace = s.trace.load(std::memory_order_relaxed);
    e.obj = s.obj.load(std::memory_order_relaxed);
    e.epoch = s.epoch.load(std::memory_order_relaxed);
    e.ts = static_cast<ts_t>(s.ts.load(std::memory_order_relaxed));
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    const std::uint64_t peer = s.peer.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.stamp.load(std::memory_order_relaxed) != before) continue;
    e.span = static_cast<std::uint16_t>((meta >> 24) & 0xffff);
    e.ev = static_cast<rec_event>((meta >> 16) & 0xff);
    e.mtype = static_cast<std::uint8_t>((meta >> 8) & 0xff);
    e.sim_clock = (meta & 1) != 0;
    e.peer = process_id{static_cast<role>((peer >> 32) & 0xff),
                       static_cast<std::uint32_t>(peer & 0xffffffffull)};
    if (only_obj && e.obj != *only_obj) continue;
    snaps.push_back({before, std::move(e)});
  }
  std::sort(snaps.begin(), snaps.end(),
            [](const snap& a, const snap& b) { return a.seq < b.seq; });
  std::vector<rec_entry> out;
  out.reserve(snaps.size());
  for (auto& s : snaps) out.push_back(std::move(s.e));
  return out;
}

std::string recorder::dump(const std::string& node,
                           std::optional<object_id> only_obj) const {
  std::string out;
  char buf[256];
  for (const auto& e : entries(only_obj)) {
    std::snprintf(buf, sizeof buf,
                  "rec node=\"%s\" dom=%s t=%llu trace=0x%llx span=%u "
                  "ev=%s type=%s peer=\"%s\" obj=%llu epoch=%llu ts=%lld\n",
                  node.c_str(), e.sim_clock ? "sim" : "ns",
                  static_cast<unsigned long long>(e.t),
                  static_cast<unsigned long long>(e.trace),
                  static_cast<unsigned>(e.span), to_string(e.ev),
                  e.mtype >= 1 && e.mtype <= k_max_msg_type
                      ? fastreg::to_string(static_cast<msg_type>(e.mtype))
                      : "-",
                  fastreg::to_string(e.peer).c_str(),
                  static_cast<unsigned long long>(e.obj),
                  static_cast<unsigned long long>(e.epoch),
                  static_cast<long long>(e.ts));
    out += buf;
  }
  return out;
}

void recorder::reset() {
  for (slot& s : slots_) s.stamp.store(0, std::memory_order_release);
  head_.store(0, std::memory_order_relaxed);
}

// --------------------------------------------------------------- registry --

namespace {

struct recorder_registry {
  std::mutex mu;
  // Ordered by process_id so dump_all is deterministic.
  std::map<process_id, std::unique_ptr<recorder>> rings;
};

recorder_registry& rec_registry() {
  static recorder_registry r;
  return r;
}

}  // namespace

recorder& recorder_for(const process_id& node) {
  auto& reg = rec_registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  auto& slot = reg.rings[node];
  if (!slot) slot = std::make_unique<recorder>(ring_capacity_from_env());
  return *slot;
}

std::vector<std::pair<std::string, std::string>> recorder_dump_all(
    std::optional<object_id> only_obj) {
  auto& reg = rec_registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [node, ring] : reg.rings) {
    auto text = ring->dump(fastreg::to_string(node), only_obj);
    if (!text.empty()) out.emplace_back(fastreg::to_string(node),
                                        std::move(text));
  }
  return out;
}

void recorder_reset_all() {
  auto& reg = rec_registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  for (auto& [node, ring] : reg.rings) ring->reset();
}

}  // namespace fastreg::obs
