// fastreg_benchmark --workload NAME --seed N [--seconds S] [--json OUT]
//                   [--trace DIR]
//
// Runs one workload in this process and prints its pinned configuration,
// every metric with its unit, and (simulator) the digest of its exact
// counters. Exit status: 0 when every op completed and every key's
// history verified, 1 when not, 2 on a usage or setup error.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"

extern char** environ;

namespace {

/// --seconds default: BENCHMARK.json's run_seconds.
constexpr double k_default_seconds = 10;

int usage(const char* msg) {
  std::fprintf(stderr, "fastreg_benchmark: %s\n", msg);
  std::fprintf(stderr,
               "usage: fastreg_benchmark --workload NAME --seed N "
               "[--seconds S] [--json OUT] [--trace DIR]\nworkloads:");
  for (const auto& w : fastreg::bench::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// The library reads FASTREG_* knobs (batch window, flush bytes, fsync
/// policy, tracing, recording) when it initializes, some of them before
/// main. The benchmark pins every knob itself, so it drops them all and
/// re-executes with a clean environment.
void drop_environment_knobs(char** argv) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FASTREG_", 8) == 0) {
      std::fprintf(stderr, "warning: ignoring %s (the benchmark pins it)\n",
                   *e);
      names.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  if (names.empty()) return;
  for (const auto& n : names) unsetenv(n.c_str());
  execv("/proc/self/exe", argv);
  std::perror("fastreg_benchmark: re-exec without FASTREG_* failed");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  drop_environment_knobs(argv);
  std::string workload;
  std::string json_out;
  std::string trace_dir;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = k_default_seconds;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        seconds = std::stod(v);
      } else if (a == "--json") {
        json_out = v;
      } else if (a == "--trace") {
        trace_dir = v;
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a + ": " + v).c_str());
    }
  }
  const auto* w = fastreg::bench::find_workload(workload);
  if (w == nullptr) {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!have_seed) return usage("--seed is required");
  if (!(seconds > 0 && seconds <= 600)) {
    return usage("--seconds must be in (0, 600]");
  }

  const auto plan = fastreg::bench::make_plan(*w, seed, seconds);
  const bool traced = !trace_dir.empty();
  if (traced) fastreg::bench::size_recorder_rings();
  std::printf("config:");
  for (const auto& c : fastreg::bench::pinned_config(plan, traced)) {
    std::printf(" %s;", c.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);

  fastreg::bench::run_result r;
  try {
    if (traced) std::filesystem::create_directories(trace_dir);
    r = fastreg::bench::run(plan, trace_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fastreg_benchmark: %s\n", e.what());
    return 2;
  }
  std::fputs(fastreg::bench::to_text(r).c_str(), stdout);
  if (!json_out.empty()) {
    std::ofstream f(json_out, std::ios::binary);
    f << fastreg::bench::to_json(r);
    if (!f) {
      std::fprintf(stderr, "fastreg_benchmark: cannot write %s\n",
                   json_out.c_str());
      return 2;
    }
  }
  return r.correct ? 0 : 1;
}
