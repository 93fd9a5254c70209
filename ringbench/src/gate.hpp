#pragma once
// Correctness gate for the UDP workloads, independent of the program's own
// bookkeeping: each member's expected (source, lseq) set is rebuilt from
// core::member_groups / core::dest_groups and the scripted message count,
// then compared with what the member actually delivered. Order is checked
// per member (gseq strictly rising), across members (one (source, lseq)
// per gseq) and with the library's own order checker.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "runtime/node.hpp"

namespace ringbench {

namespace core = ringnet::core;
namespace proto = ringnet::proto;

struct GateInput {
  std::size_t n_mh = 0;
  std::uint32_t msgs_per_source = 0;  // every MH hosts one source
  core::GroupConfig groups;
  const std::vector<std::vector<ringnet::runtime::DeliveredRec>>* per_mh =
      nullptr;
  std::uint64_t really_lost = 0;  // gap-skipped deliveries the MHs counted
};

/// An expected delivery that never happened.
struct Miss {
  std::uint32_t member = 0;
  std::uint32_t source = 0;
  std::uint64_t lseq = 0;
};

struct GateResult {
  std::uint64_t expected = 0;
  std::uint64_t matched = 0;  // first delivery of an expected message
  std::uint64_t missing = 0;
  std::uint64_t duplicate = 0;  // repeats and messages not destined here
  std::uint64_t out_of_order = 0;
  std::uint64_t really_lost = 0;
  std::optional<std::string> first_error;
  // counted[m][i]: delivery i of member m is the matched first delivery of
  // an expected message (the ones that carry a latency sample).
  std::vector<std::vector<std::uint8_t>> counted;
  std::vector<Miss> misses;  // one per missing delivery

  std::uint64_t failed() const {
    return missing + duplicate + out_of_order + really_lost;
  }
};

/// Whether member `member` must deliver message (source, lseq).
bool destined(std::size_t member, std::uint32_t source, std::uint64_t lseq,
              const core::GroupConfig& groups);

GateResult run_gate(const GateInput& in);

/// Feeds the gate a clean log and three broken ones (a short-delivered
/// member, a swapped pair, a duplicate) for a single- and a multi-group
/// configuration. Returns an error description, or nullopt when the gate
/// passes the clean logs and fails every broken one.
std::optional<std::string> gate_self_test();

}  // namespace ringbench
