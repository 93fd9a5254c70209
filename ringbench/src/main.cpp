// ringbench: one command for the repository's end-to-end benchmark.
//
//   ringbench --workload udp-ordered|udp-groups|sim-100k --seed N
//             --seconds S --trace 0|1 [--spans-out FILE]
//
// Prints a run-context line, human-readable notes and one "metric" line per
// reported metric, then, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 when the run completed (correct or not), 2 on bad usage,
// 1 when the correctness gate's self-test fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "gate.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload udp-ordered|udp-groups|sim-100k "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  ringbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--workload") == 0 && (v = value())) {
      workload = v;
    } else if (std::strcmp(arg, "--seed") == 0 && (v = value())) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--seconds") == 0 && (v = value())) {
      opt.seconds = std::strtod(v, nullptr);
    } else if (std::strcmp(arg, "--trace") == 0 && (v = value())) {
      opt.traced = std::strcmp(v, "0") != 0;
    } else if (std::strcmp(arg, "--spans-out") == 0 && (v = value())) {
      opt.spans_out = v;
    } else {
      return usage(argv[0]);
    }
  }

  // The gate must reject broken logs before it is trusted with a real one.
  if (const auto err = ringbench::gate_self_test()) {
    std::fprintf(stderr, "correctness gate self-test failed: %s\n",
                 err->c_str());
    return 1;
  }
  if (!(opt.seconds > 0)) return usage(argv[0]);

  ringbench::WorkloadResult r;
  if (workload == "udp-ordered") {
    r = ringbench::run_udp(false, opt);
  } else if (workload == "udp-groups") {
    r = ringbench::run_udp(true, opt);
  } else if (workload == "sim-100k") {
    r = ringbench::run_sim(opt);
  } else {
    return usage(argv[0]);
  }
  std::printf("context %s\n", ringbench::run_context_json().c_str());
  ringbench::print_result(r, opt.traced);
  return 0;
}
