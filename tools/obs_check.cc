// obs_check -- validates an observability text dump. Two grammars,
// auto-detected by the first non-blank, non-comment line:
//  * metrics exposition (`name{key="value",...} number`, one sample per
//    line) -- CI runs it on the registry dump (obs::render_text) that
//    E12 --obs-check writes, so a format drift between the renderer and
//    the grammar fails the build instead of a dashboard;
//  * flight-recorder dumps (lines starting `rec `, the *.recorder files
//    a checker failure emits; see src/obs/recorder.h).
// Reads the file named on the command line, or stdin with no argument.
// Exit 0 on a valid dump, 1 with a diagnostic on the first offending
// line.
#include <cstdio>
#include <string>

#include "obs/metrics.h"
#include "obs/timeline.h"

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
  // Flavor detection: the first line that is not blank or a '#' comment
  // starts with `rec ` in a recorder dump and never does in a metrics
  // exposition (metric names cannot contain a space).
  bool recorder_dump = false;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    recorder_dump = line.rfind("rec ", 0) == 0;
    break;
  }
  const auto err = recorder_dump
                       ? fastreg::obs::validate_recorder_dump(text)
                       : fastreg::obs::validate_dump(text);
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
