// Tiny leveled logger. Off by default so simulations stay fast; enable via
// the FASTREG_LOG environment variable (trace|debug|info|warn|error|off),
// read once on first use.
#pragma once

#include <cstdio>
#include <string>

#include "common/types.h"

namespace fastreg {

enum class log_level : int {
  trace = 0,
  debug = 1,
  info = 2,
  warn = 3,
  error = 4,
  off = 5,
};

class log_config {
 public:
  static log_level level();
};

void log_write(log_level lv, const char* file, int line, const std::string& msg);

/// Thread-local node-id tag prepended to every log line emitted by the
/// calling thread: reactor threads set it to their node's process id,
/// the simulator to the automaton being stepped (scoped_log_node, which
/// takes precedence while it is in scope). Empty = no prefix.
void log_set_node(std::string node);

/// RAII node tag for one simulator step: points the calling thread's tag
/// at `p`, which must outlive the scope. The id is formatted only when a
/// line is written, so a step with logging off pays two pointer stores.
class scoped_log_node {
 public:
  explicit scoped_log_node(const process_id& p);
  ~scoped_log_node();
  scoped_log_node(const scoped_log_node&) = delete;
  scoped_log_node& operator=(const scoped_log_node&) = delete;

 private:
  const process_id* prev_;
};

namespace detail {
std::string log_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
}  // namespace detail

}  // namespace fastreg

#define FASTREG_LOG(lv, ...)                                              \
  do {                                                                    \
    if (static_cast<int>(lv) >= static_cast<int>(                         \
                                    ::fastreg::log_config::level())) {    \
      ::fastreg::log_write(lv, __FILE__, __LINE__,                        \
                           ::fastreg::detail::log_format(__VA_ARGS__));   \
    }                                                                     \
  } while (0)

#define LOG_TRACE(...) FASTREG_LOG(::fastreg::log_level::trace, __VA_ARGS__)
#define LOG_DEBUG(...) FASTREG_LOG(::fastreg::log_level::debug, __VA_ARGS__)
#define LOG_INFO(...) FASTREG_LOG(::fastreg::log_level::info, __VA_ARGS__)
#define LOG_WARN(...) FASTREG_LOG(::fastreg::log_level::warn, __VA_ARGS__)
#define LOG_ERROR(...) FASTREG_LOG(::fastreg::log_level::error, __VA_ARGS__)
