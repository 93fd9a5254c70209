#pragma once
// The benchmark's workloads. Each takes its inputs from the seed, measures
// for about `seconds` of wall time, checks the program's outputs, and fills
// a WorkloadResult. With `traced` set, half the time runs untraced and
// half traced: the per-layer metrics come from the traced half, the
// tracing overhead from comparing the two halves.

#include <cstdint>
#include <string>

#include "report.hpp"

namespace ringbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string spans_out;  // traced run: span dump path (empty = none)
};

/// udp-ordered (multi = false) and udp-groups (multi = true): a 15-node
/// deployment over UDP on 127.0.0.1, open loop at 1000 Hz per MH.
WorkloadResult run_udp(bool multi, const RunOptions& opt);

/// sim-100k: the E13 shape on the sharded simulator.
WorkloadResult run_sim(const RunOptions& opt);

}  // namespace ringbench
