// obs_check -- validates a metrics exposition dump (`name{key="value",...}
// number`, one sample per line). CI runs it on the registry dump
// (obs::render_text) that E12 --obs-check writes, so a format drift
// between the renderer and the grammar fails the build instead of a
// dashboard. Flight-recorder dumps have their own validator:
// `trace_merge --validate`.
// Reads the file named on the command line, or stdin with no argument.
// Exit 0 on a valid dump, 1 with a diagnostic on the first offending
// line.
#include <cstdio>
#include <string>

#include "obs/metrics.h"

int main(int argc, char** argv) {
  std::string text;
  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "r");
    if (f == nullptr) {
      std::fprintf(stderr, "obs_check: cannot open %s\n", argv[1]);
      return 1;
    }
    char buf[64 * 1024];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
  } else {
    char buf[64 * 1024];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, stdin)) > 0) {
      text.append(buf, n);
    }
  }
  if (text.empty()) {
    std::fprintf(stderr, "obs_check: empty dump\n");
    return 1;
  }
  const auto err = fastreg::obs::validate_dump(text);
  if (!err.empty()) {
    std::fprintf(stderr, "obs_check: %s\n", err.c_str());
    return 1;
  }
  std::size_t lines = 0;
  for (const char ch : text) {
    if (ch == '\n') ++lines;
  }
  std::printf("obs_check: %zu lines ok\n", lines);
  return 0;
}
