// Tiny leveled logger. Off by default so simulations stay fast; enable via
// the FASTREG_LOG environment variable (trace|debug|info|warn|error|off),
// read once on first use.
#pragma once

#include <cstdio>
#include <string>

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
/// calling thread (reactor threads set it to their node's process id, the
/// simulator to the automaton being stepped). Empty = no prefix.
void log_set_node(std::string node);
[[nodiscard]] const std::string& log_node();

/// RAII node tag for scoped contexts (the simulator sets it around each
/// automaton step; a thread that owns one node for its lifetime can call
/// log_set_node directly instead).
class scoped_log_node {
 public:
  explicit scoped_log_node(std::string node) : prev_(log_node()) {
    log_set_node(std::move(node));
  }
  ~scoped_log_node() { log_set_node(std::move(prev_)); }
  scoped_log_node(const scoped_log_node&) = delete;
  scoped_log_node& operator=(const scoped_log_node&) = delete;

 private:
  std::string prev_;
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
