#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace ringbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"latency_p50_us", "us"},
      {"cpu_us_per_delivery", "us"},
      {"rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // runtime/transport
      {"transport.frames_per_delivery", "count"},
      {"transport.bytes_per_delivery", "bytes"},
      {"transport.send_us_p50", "us"},
      {"transport.send_us_p99", "us"},
      {"transport.recv_empty_ratio", "ratio"},
      {"transport.send_failures", "count"},
      {"transport.malformed", "count"},
      // runtime/event_loop
      {"loop.inbox_wait_us_p50", "us"},
      {"loop.inbox_wait_us_p99", "us"},
      {"loop.submit_lateness_us_p50", "us"},
      {"loop.submit_lateness_us_p99", "us"},
      {"loop.ticks_per_s", "1/s"},
      {"loop.idle_tick_ratio", "ratio"},
      {"loop.ctx_switches_per_delivery", "count"},
      // runtime/node
      {"br.step_us_p50", "us"},
      {"br.step_us_p99", "us"},
      {"ap.step_us_p50", "us"},
      {"mh.step_us_p50", "us"},
      {"mh.step_us_p99", "us"},
      {"br.busy_ratio_max", "ratio"},
      {"ap.busy_ratio_max", "ratio"},
      {"token.holds_per_s", "1/s"},
      {"token.msgs_per_hold", "count"},
      {"arq.uplink_retx_per_msg", "ratio"},
      {"arq.downlink_retx", "count"},
      {"token.retx", "count"},
      {"token.regenerated", "count"},
      {"mh.duplicates", "count"},
      {"stage.submit_us_p50", "us"},
      {"stage.assign_us_p50", "us"},
      {"stage.assign_us_p99", "us"},
      {"stage.relay_local_us_p50", "us"},
      {"stage.relay_remote_us_p50", "us"},
      {"stage.deliver_us_p50", "us"},
      {"stage.join_skipped", "count"},
      // proto
      {"codec.encode_ns_per_frame", "ns"},
      {"codec.decode_ns_per_frame", "ns"},
      {"codec.frame_ns_per_frame", "ns"},
      {"codec.unframe_ns_per_frame", "ns"},
      // whole process; latency_p99_us is measured like the end-to-end
      // figures but is too unsteady on a shared host to gate
      {"latency_p99_us", "us"},
      {"heap.allocs_per_delivery", "count"},
      {"coverage.cpu_ratio", "ratio"},
      {"delivery_fail_ratio", "ratio"},
      // sim, core/protocol
      {"sim.deliveries_per_s", "1/s"},
      {"sim.events_per_s", "1/s"},
      {"sim.events_per_delivery", "count"},
      {"sim.windows_per_s", "1/s"},
      {"sim.serial_steps_per_window", "count"},
      {"sim.inbox_deferred_per_event", "ratio"},
      {"sim.cpu_util", "ratio"},
      {"heap.allocs_per_event", "count"},
      // tracing overhead: traced / untraced - 1, per end-to-end metric
      {"trace_overhead.setup_s", "ratio"},
      {"trace_overhead.latency_p50_us", "ratio"},
      {"trace_overhead.latency_p99_us", "ratio"},
      {"trace_overhead.cpu_us_per_delivery", "ratio"},
      {"trace_overhead.rss_mb", "ratio"},
  };
  return defs;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

namespace {

std::string num(double v) {
  // Shortest round-trip form; a non-finite value (a latency percentile that
  // lands on a miss) is clamped so the result stays valid JSON.
  if (!std::isfinite(v)) v = v > 0 ? 1e18 : (v < 0 ? -1e18 : 0.0);
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string run_context_json() {
  double load1 = -1.0;
  std::ifstream la("/proc/loadavg");
  if (la) la >> load1;
  const long nproc_online = sysconf(_SC_NPROCESSORS_ONLN);
  std::string s = "{\"nproc\": " + std::to_string(nproc_online);
  s += ", \"hardware_concurrency\": " +
       std::to_string(std::thread::hardware_concurrency());
  s += ", \"loadavg_1m\": " + num(load1);
  s += ", \"build_type\": \"" RINGBENCH_BUILD_TYPE "\"";
  s += ", \"compiler\": \"" + compiler_id() + "\"";
#ifdef NDEBUG
  s += ", \"ndebug\": true}";
#else
  s += ", \"ndebug\": false}";
#endif
  return s;
}

void add_trace_overhead(WorkloadResult& r,
                        const std::map<std::string, double>& untraced,
                        const std::map<std::string, double>& traced) {
  for (const auto& [name, u] : untraced) {
    const auto t = traced.find(name);
    if (t == traced.end() || u == 0.0) continue;
    r.layers["trace_overhead." + name] = t->second / u - 1.0;
  }
  // Whole-process figures kept in the per-layer table come from the
  // untraced half, like the end-to-end ones.
  for (const MetricDef& d : per_layer_metrics()) {
    const auto u = untraced.find(d.name);
    if (u != untraced.end()) r.layers[d.name] = u->second;
  }
}

void print_result(const WorkloadResult& r, bool trace) {
  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  const auto& defs = trace ? per_layer_metrics() : end_to_end_metrics();
  const auto& values = trace ? r.layers : r.e2e;
  std::string missing;
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (it == values.end()) missing += std::string(missing.empty() ? "" : " ") + d.name;
    std::printf("metric %-36s %14s %s\n", d.name, num(v).c_str(), d.unit);
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(d.name) + "\": {\"value\": " + num(v) +
            ", \"unit\": \"" + d.unit + "\"}";
  }
  json += "}}";
  // Figures measured alongside that belong to the other metric table.
  for (const auto& [name, v] : values) {
    const bool listed = std::any_of(defs.begin(), defs.end(), [&](const MetricDef& d) {
      return name == d.name;
    });
    if (!listed) std::printf("also   %-36s %14s\n", name.c_str(), num(v).c_str());
  }
  if (!missing.empty()) {
    std::printf("not measured (reported as 0): %s\n", missing.c_str());
    if (!r.not_measured_reason.empty()) {
      std::printf("  reason: %s\n", r.not_measured_reason.c_str());
    }
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace ringbench
