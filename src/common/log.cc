#include "common/log.h"

#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace fastreg {
namespace {

log_level level_from_env() {
  const char* env = std::getenv("FASTREG_LOG");
  if (env == nullptr) return log_level::off;
  if (std::strcmp(env, "trace") == 0) return log_level::trace;
  if (std::strcmp(env, "debug") == 0) return log_level::debug;
  if (std::strcmp(env, "info") == 0) return log_level::info;
  if (std::strcmp(env, "warn") == 0) return log_level::warn;
  if (std::strcmp(env, "error") == 0) return log_level::error;
  return log_level::off;
}

const char* level_name(log_level lv) {
  switch (lv) {
    case log_level::trace:
      return "TRACE";
    case log_level::debug:
      return "DEBUG";
    case log_level::info:
      return "INFO";
    case log_level::warn:
      return "WARN";
    case log_level::error:
      return "ERROR";
    case log_level::off:
      break;
  }
  return "?";
}

std::mutex& log_mutex() {
  static std::mutex m;
  return m;
}

std::string& node_storage() {
  thread_local std::string node;
  return node;
}

/// The stepped process a scoped_log_node points at; nullptr outside one.
thread_local const process_id* tls_stepped = nullptr;

}  // namespace

log_level log_config::level() {
  static const log_level lv = level_from_env();
  return lv;
}

void log_set_node(std::string node) { node_storage() = std::move(node); }

scoped_log_node::scoped_log_node(const process_id& p) : prev_(tls_stepped) {
  tls_stepped = &p;
}

scoped_log_node::~scoped_log_node() { tls_stepped = prev_; }

void log_write(log_level lv, const char* file, int line,
               const std::string& msg) {
  const char* base = std::strrchr(file, '/');
  base = base != nullptr ? base + 1 : file;
  const std::string node =
      tls_stepped != nullptr ? to_string(*tls_stepped) : node_storage();
  std::lock_guard<std::mutex> guard(log_mutex());
  if (node.empty()) {
    std::fprintf(stderr, "[%s %s:%d] %s\n", level_name(lv), base, line,
                 msg.c_str());
  } else {
    std::fprintf(stderr, "[%s %s %s:%d] %s\n", level_name(lv), node.c_str(),
                 base, line, msg.c_str());
  }
}

namespace detail {

std::string log_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

}  // namespace detail
}  // namespace fastreg
