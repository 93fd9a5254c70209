#pragma once
// Metric vocabulary and result printing. The two tables below are the
// benchmark's contract with BENCHMARK.json: the untraced run reports every
// end-to-end metric, the traced run every per-layer metric. A workload
// that does not exercise a layer reports that layer's metrics as 0 and
// names them on a "not measured" line, so the output always has one shape.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ringbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;     // measured end-to-end values
  std::map<std::string, double> layers;  // measured per-layer values
  // Human-readable lines printed ahead of the JSON result (sample counts,
  // gate verdicts, the per-layer table).
  std::vector<std::string> notes;
  std::string not_measured_reason;  // why absent per-layer metrics are 0
};

/// Value at quantile q (nearest rank) of `v`; sorts `v` in place. 0 when
/// empty.
double quantile(std::vector<double>& v, double q);

/// Process CPU (user + sys) in seconds, and context switches, from
/// getrusage(RUSAGE_SELF).
struct Usage {
  double cpu_s = 0;
  std::uint64_t ctx_switches = 0;
};
Usage usage_now();

/// The process's resident set now, in MiB (/proc/self/statm); 0 if it
/// cannot be read.
double resident_mb();

/// One JSON object describing the machine and build the run happened on.
std::string run_context_json();

/// traced / untraced - 1 for every end-to-end figure, into r.layers as
/// trace_overhead.<name>, plus the untraced value of each figure that the
/// per-layer table lists (latency_p99_us, sim.deliveries_per_s).
void add_trace_overhead(WorkloadResult& r,
                        const std::map<std::string, double>& untraced,
                        const std::map<std::string, double>& traced);

/// Print the notes, one "metric name value unit" line per reported metric
/// (and an "also" line for each measured value of the other table), then
/// the one-line JSON result as the last line of stdout.
void print_result(const WorkloadResult& r, bool trace);

}  // namespace ringbench
