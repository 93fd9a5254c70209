// sim-100k: the E13 deployment shape (16 BR domains x 25 APs, 100k MHs,
// 32 sources at 4 Hz, 100 ms acks, zero-loss channels, no per-delivery
// log) on the domain-sharded engine with min(4, nproc) workers. Sources
// are Poisson rather than E13's constant rate: with zero loss a
// constant-rate run draws nothing from the seed, so every seed would give
// the same inputs. Each repetition builds the simulation (set-up), runs
// kRunS of simulated time, then drains until every submitted message
// reached every member. kRunS is 2 s (about 256 messages) because the
// simulated latency median is taken over messages: with 1 s its spread
// across seeds was near 10%. All repetitions of a run use the run's seed, so
// each must execute exactly the same number of events.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "alloc_count.hpp"
#include "baseline/harness.hpp"
#include "core/protocol.hpp"
#include "obs/names.hpp"
#include "sim/simulation.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace ringbench {

namespace {

namespace names = ringnet::obs::names;
namespace sim = ringnet::sim;
namespace baseline = ringnet::baseline;
namespace net = ringnet::net;

constexpr std::size_t kBrs = 16;
constexpr std::size_t kApsPerAg = 25;
constexpr std::size_t kMhs = 100'000;
constexpr double kRunS = 2.0;
constexpr double kDrainStepS = 0.01;
constexpr double kDrainLimitS = 5.0;
// A run has room for only two or three repetitions, so set-up is also
// timed this many extra times on its own, without running the simulation.
constexpr int kSetupOnlyReps = 5;

std::size_t workers() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, hw);
}

baseline::RunSpec make_spec(std::uint64_t seed) {
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = kBrs;
  spec.config.hierarchy.ags_per_br = 1;
  spec.config.hierarchy.aps_per_ag = kApsPerAg;
  spec.config.hierarchy.mhs_per_ap = kMhs / (kBrs * kApsPerAg);
  spec.config.hierarchy.wan = net::ChannelModel::wired_wan(0.0);
  spec.config.hierarchy.lan = net::ChannelModel::wired_lan(0.0);
  spec.config.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  spec.config.num_sources = 32;
  spec.config.source.rate_hz = 4.0;
  spec.config.source.pattern = ringnet::core::TrafficPattern::Poisson;
  spec.config.options.ack_period = sim::msecs(100);
  spec.config.record_deliveries = false;
  spec.warmup = sim::SimTime::zero();
  spec.run = sim::secs(kRunS);
  spec.seed = seed;
  spec.shard = true;
  spec.shard_threads = workers();
  return spec;
}

struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t events = 0;
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t gap_skipped = 0;
  std::uint64_t windows = 0;
  std::uint64_t serial_steps = 0;
  std::uint64_t inbox_deferred = 0;
  std::uint64_t allocs = 0;
  // Simulated submit->delivery latency over every member-delivery.
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  std::uint64_t lat_samples = 0;
  double rss_mb = 0;  // resident set once every message is delivered
};

Rep run_rep(std::uint64_t seed) {
  malloc_trim(0);  // start each repetition from a trimmed heap
  Rep r;
  const baseline::RunSpec spec = make_spec(seed);
  const std::int64_t t0 = mono_ns();
  const ringnet::core::ProtocolConfig cfg = baseline::effective_config(spec);
  sim::Simulation s(spec.seed, baseline::shard_plan(spec, cfg));
  ringnet::core::RingNetProtocol proto(s, cfg);
  proto.start();
  r.setup_s = static_cast<double>(mono_ns() - t0) * 1e-9;

  const std::size_t members = proto.mhs().size();
  const Usage u0 = usage_now();
  const std::uint64_t a0 = alloc_count();
  const std::int64_t w0 = mono_ns();
  s.run_for(spec.run);
  proto.stop_sources();
  const auto delivered = [&] { return s.metrics().counter(names::kMhDelivered); };
  for (double drained = 0;
       drained < kDrainLimitS && delivered() < proto.total_sent() * members;
       drained += kDrainStepS) {
    s.run_for(sim::secs(kDrainStepS));
  }
  const std::int64_t w1 = mono_ns();
  const Usage u1 = usage_now();
  r.allocs = alloc_count() - a0;
  r.wall_s = static_cast<double>(w1 - w0) * 1e-9;
  r.cpu_s = u1.cpu_s - u0.cpu_s;
  r.events = s.executed_events();
  r.submitted = proto.total_sent() * members;
  r.delivered = delivered();
  r.gap_skipped = s.metrics().counter(names::kGapSkippedMsgs);
  r.windows = s.metrics().counter(names::kSchedWindows);
  r.serial_steps = s.metrics().counter(names::kSchedSerialSteps);
  r.inbox_deferred = s.metrics().counter(names::kSchedInboxDeferred);
  const auto lat = proto.lat_hist();
  r.lat_p50_us = static_cast<double>(lat.p50());
  r.lat_p99_us = static_cast<double>(lat.p99());
  r.lat_samples = lat.count();
  r.rss_mb = resident_mb();
  return r;
}

// Set-up alone, timed as in run_rep, then torn down.
double setup_only_s(std::uint64_t seed) {
  malloc_trim(0);
  const baseline::RunSpec spec = make_spec(seed);
  const std::int64_t t0 = mono_ns();
  const ringnet::core::ProtocolConfig cfg = baseline::effective_config(spec);
  sim::Simulation s(spec.seed, baseline::shard_plan(spec, cfg));
  ringnet::core::RingNetProtocol proto(s, cfg);
  proto.start();
  return static_cast<double>(mono_ns() - t0) * 1e-9;
}

std::map<std::string, double> e2e_of(std::vector<Rep>& reps,
                                     const std::vector<double>& setup_only,
                                     std::vector<std::string>& notes,
                                     const char* label) {
  std::vector<double> setup = setup_only, rate, cpu, rss;
  std::uint64_t delivered = 0;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s);
    rate.push_back(r.wall_s > 0 ? static_cast<double>(r.delivered) / r.wall_s
                                : 0.0);
    if (r.delivered > 0) {
      cpu.push_back(r.cpu_s * 1e6 / static_cast<double>(r.delivered));
    }
    rss.push_back(r.rss_mb);
    delivered += r.delivered;
  }
  std::map<std::string, double> out;
  out["setup_s"] = quantile(setup, 0.5);  // repetitions and set-up-only
  // Every repetition replays the same seed, so the simulated latency is the
  // same in each; take the first.
  out["latency_p50_us"] = reps.front().lat_p50_us;
  out["latency_p99_us"] = reps.front().lat_p99_us;
  // Interference from other work on the host only adds CPU time and wall
  // time, so cost takes the lower and throughput the upper quartile over
  // repetitions.
  out["cpu_us_per_delivery"] = quantile(cpu, 0.25);
  out["sim.deliveries_per_s"] = quantile(rate, 0.75);
  // Heap kept from earlier repetitions only adds: smallest repetition.
  out["rss_mb"] = quantile(rss, 0.0);
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "%s: %zu repetitions (setup_s over %zu set-ups), %llu "
                "member-deliveries; latency is simulated submit->delivery "
                "time, n=%llu samples",
                label, reps.size(), setup.size(),
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(reps.front().lat_samples));
  notes.emplace_back(buf);
  return out;
}

}  // namespace

WorkloadResult run_sim(const RunOptions& opt) {
  WorkloadResult r;
  r.notes.push_back(
      "workload sim-100k: 16 BR domains x 25 APs, 100000 MHs, 32 Poisson sources "
      "at 4 Hz, 100 ms acks, zero loss, 2 s simulated + drain, sharded engine "
      "with " + std::to_string(workers()) + " workers, seed " +
      std::to_string(opt.seed));

  // Repeat until the run's time is used up; the traced run gives its second
  // half to repetitions with the heap counter on.
  std::vector<Rep> plain, traced;
  const std::int64_t start = mono_ns();
  const double half = opt.traced ? opt.seconds / 2 : opt.seconds;
  const auto elapsed = [&] { return static_cast<double>(mono_ns() - start) * 1e-9; };
  do {
    plain.push_back(run_rep(opt.seed));
  } while (elapsed() < half || plain.size() < 2);
  if (opt.traced) {
    set_alloc_counting(true);
    const std::int64_t t_start = mono_ns();
    do {
      traced.push_back(run_rep(opt.seed));
    } while (static_cast<double>(mono_ns() - t_start) * 1e-9 < half);
    set_alloc_counting(false);
  }
  // After the repetitions, so that the heap these leave behind does not
  // add to a repetition's rss_mb.
  std::vector<double> setup_only;
  for (int i = 0; i < kSetupOnlyReps; ++i) {
    setup_only.push_back(setup_only_s(opt.seed));
  }

  for (const auto* reps : {&plain, &traced}) {
    for (const Rep& rep : *reps) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "repetition %zu%s: setup %.4f s, wall %.3f s, cpu %.4f "
                    "us/delivery, rss %.1f MB",
                    static_cast<std::size_t>(&rep - reps->data()),
                    reps == &traced ? " (traced)" : "", rep.setup_s, rep.wall_s,
                    rep.delivered > 0 ? rep.cpu_s * 1e6 / static_cast<double>(rep.delivered) : 0.0,
                    rep.rss_mb);
      r.notes.emplace_back(buf);
    }
  }

  // Gate: every submitted message delivered to every member, no gap skips,
  // and the same event count on every repetition of the seed.
  std::uint64_t failed = 0, attempted = 0, mismatched = 0;
  const std::uint64_t events0 = plain.front().events;
  for (const auto* reps : {&plain, &traced}) {
    for (const Rep& rep : *reps) {
      attempted += rep.submitted;
      failed += rep.delivered > rep.submitted ? rep.delivered - rep.submitted
                                              : rep.submitted - rep.delivered;
      failed += rep.gap_skipped;
      if (rep.events != events0) ++mismatched;
    }
  }
  r.attempted = attempted;
  r.failed = failed + mismatched;
  r.correct = r.failed == 0 && attempted > 0;
  r.notes.push_back("gate: " + std::string(r.correct ? "pass" : "FAIL") + ", " +
                    std::to_string(attempted) +
                    " expected member-deliveries, " + std::to_string(failed) +
                    " missing/extra/gap-skipped, " + std::to_string(mismatched) +
                    " repetitions with an event count other than " +
                    std::to_string(events0));

  if (!opt.traced) {
    r.e2e = e2e_of(plain, setup_only, r.notes, "untraced");
    return r;
  }
  const auto untraced_e2e = e2e_of(plain, setup_only, r.notes, "untraced half");
  r.e2e = e2e_of(traced, {}, r.notes, "traced half");
  add_trace_overhead(r, untraced_e2e, r.e2e);

  double wall = 0, cpu = 0;
  std::uint64_t events = 0, delivered = 0, windows = 0, serial = 0, deferred = 0,
                allocs = 0;
  for (const Rep& rep : traced) {
    wall += rep.wall_s;
    cpu += rep.cpu_s;
    events += rep.events;
    delivered += rep.delivered;
    windows += rep.windows;
    serial += rep.serial_steps;
    deferred += rep.inbox_deferred;
    allocs += rep.allocs;
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto& L = r.layers;
  L["sim.events_per_s"] = ratio(static_cast<double>(events), wall);
  L["sim.events_per_delivery"] =
      ratio(static_cast<double>(events), static_cast<double>(delivered));
  L["sim.windows_per_s"] = ratio(static_cast<double>(windows), wall);
  L["sim.serial_steps_per_window"] =
      ratio(static_cast<double>(serial), static_cast<double>(windows));
  L["sim.inbox_deferred_per_event"] =
      ratio(static_cast<double>(deferred), static_cast<double>(events));
  L["sim.cpu_util"] = ratio(cpu, wall * static_cast<double>(workers()));
  L["heap.allocs_per_event"] =
      ratio(static_cast<double>(allocs), static_cast<double>(events));
  L["delivery_fail_ratio"] =
      ratio(static_cast<double>(r.failed), static_cast<double>(attempted));
  r.not_measured_reason =
      "transport.*, loop.*, br/ap/mh.*, token.*, arq.*, stage.*, codec.*, "
      "heap.allocs_per_delivery and coverage.cpu_ratio belong to the UDP "
      "runtime, which this workload does not run";
  return r;
}

}  // namespace ringbench
