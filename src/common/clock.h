// The one wall clock: every steady-clock timestamp the project takes --
// TCP op-log histories, recorder ns events, transport flush timings,
// persist fsync pacing and timings -- is this read, so timestamps from
// different layers of one process compare directly.
#pragma once

#include <chrono>
#include <cstdint>

namespace fastreg {

/// steady_clock::now() in nanoseconds since the clock's epoch.
[[nodiscard]] inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace fastreg
