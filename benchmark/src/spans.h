// Benchmark-side spans: name, start, end, parent and op id around every
// call the benchmark makes into a layer (start, preload, session submit,
// pump, drain, gather, verify, the simulator run). They live in memory --
// one lane per driving thread, so recording takes no lock -- and are
// written out when the run ends. Only traced runs record them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace fastreg::bench {

[[nodiscard]] std::uint64_t now_ns();

struct span {
  /// A string literal naming the call.
  const char* name{""};
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
  /// Unique across lanes; 0 is "no span".
  std::uint64_t id{0};
  std::uint64_t parent{0};
  /// The measured op the span belongs to (1-based); 0 when not per-op.
  std::uint64_t op{0};
  std::uint32_t lane{0};
};

/// One thread's spans. Only its owning thread records into it.
class span_lane {
 public:
  explicit span_lane(std::uint32_t index) : index_(index) {}

  std::uint64_t begin(const char* name, std::uint64_t parent,
                      std::uint64_t op = 0);
  void end(std::uint64_t id);
  [[nodiscard]] const std::vector<span>& spans() const { return spans_; }

 private:
  std::uint32_t index_;
  std::vector<span> spans_;
};

/// The lanes of one run. Add every lane before the threads that use
/// them start.
class span_log {
 public:
  span_lane* add_lane();
  [[nodiscard]] std::vector<span> all() const;

 private:
  std::vector<std::unique_ptr<span_lane>> lanes_;
};

/// A span over the enclosing scope; does nothing on a null lane.
class scoped_span {
 public:
  scoped_span(span_lane* lane, const char* name, std::uint64_t parent,
              std::uint64_t op = 0)
      : lane_(lane), id_(lane ? lane->begin(name, parent, op) : 0) {}
  ~scoped_span() { end(); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  /// Ends the span before the scope does (idempotent).
  void end() {
    if (lane_) lane_->end(id_);
    lane_ = nullptr;
  }
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  span_lane* lane_;
  std::uint64_t id_;
};

/// Self time of each span (parallel to `spans`): its duration minus the
/// part of its interval that its children's spans cover.
[[nodiscard]] std::vector<std::uint64_t> self_times(
    const std::vector<span>& spans);

struct span_summary {
  std::string name;
  std::uint64_t count{0};
  double total_ms{0};
  double self_ms{0};
  double p50_us{0};
};
/// Per span name, in order of first appearance.
[[nodiscard]] std::vector<span_summary> summarize(
    const std::vector<span>& spans);

/// Chrome trace-event JSON: one complete ("X") event per span, ts and
/// dur in microseconds from the earliest span, tid = lane.
[[nodiscard]] std::string to_catapult(const std::vector<span>& spans);

}  // namespace fastreg::bench
