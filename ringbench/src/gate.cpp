#include "gate.hpp"

#include <unordered_map>
#include <utility>

#include "core/analysis.hpp"
#include "core/groups.hpp"

namespace ringbench {

using ringnet::GlobalSeq;
using ringnet::NodeId;
using ringnet::Tier;
using ringnet::runtime::DeliveredRec;

bool destined(std::size_t member, std::uint32_t source, std::uint64_t lseq,
              const core::GroupConfig& groups) {
  if (!groups.multi()) return true;
  return core::dest_groups(NodeId{source}, lseq, groups)
      .intersects(core::member_groups(member, groups));
}

GateResult run_gate(const GateInput& in) {
  GateResult r;
  r.really_lost = in.really_lost;
  const std::size_t n = in.n_mh;
  const std::size_t msgs = in.msgs_per_source;
  const auto& per_mh = *in.per_mh;
  const auto note = [&](std::string msg) {
    if (!r.first_error) r.first_error = std::move(msg);
  };

  // Destination sets are a pure function of (source, lseq): compute each
  // once, then test membership per member.
  std::vector<proto::GroupSet> dests;
  std::vector<proto::GroupSet> members;
  if (in.groups.multi()) {
    dests.reserve(n * msgs);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t l = 0; l < msgs; ++l) {
        dests.push_back(core::dest_groups(NodeId{static_cast<std::uint32_t>(s)},
                                          l, in.groups));
      }
    }
    for (std::size_t m = 0; m < n; ++m) {
      members.push_back(core::member_groups(m, in.groups));
    }
  }
  const auto is_expected = [&](std::size_t m, std::size_t s, std::size_t l) {
    return !in.groups.multi() || dests[s * msgs + l].intersects(members[m]);
  };

  std::unordered_map<GlobalSeq, std::pair<std::uint32_t, std::uint64_t>>
      binding;
  r.counted.resize(n);
  for (std::size_t m = 0; m < n; ++m) {
    std::vector<std::uint8_t> seen(n * msgs, 0);
    std::uint64_t want = 0;
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t l = 0; l < msgs; ++l) want += is_expected(m, s, l);
    }
    r.expected += want;
    const auto& recs = m < per_mh.size() ? per_mh[m]
                                         : std::vector<DeliveredRec>{};
    r.counted[m].assign(recs.size(), 0);
    std::uint64_t got = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const DeliveredRec& d = recs[i];
      if (i > 0 && d.gseq <= recs[i - 1].gseq) {
        ++r.out_of_order;
        note("member " + std::to_string(m) + " delivered gseq " +
             std::to_string(d.gseq) + " after " +
             std::to_string(recs[i - 1].gseq));
      }
      const auto [it, fresh] =
          binding.emplace(d.gseq, std::make_pair(d.source.v, d.lseq));
      if (!fresh && it->second != std::make_pair(d.source.v, d.lseq)) {
        ++r.out_of_order;
        note("gseq " + std::to_string(d.gseq) +
             " bound to two different messages");
      }
      const std::size_t s = d.source.v;
      if (s >= n || d.lseq >= msgs || !is_expected(m, s, d.lseq)) {
        ++r.duplicate;
        note("member " + std::to_string(m) + " delivered an undestined " +
             "message (source " + std::to_string(s) + ", lseq " +
             std::to_string(d.lseq) + ")");
        continue;
      }
      std::uint8_t& flag = seen[s * msgs + d.lseq];
      if (flag != 0) {
        ++r.duplicate;
        note("member " + std::to_string(m) + " delivered (source " +
             std::to_string(s) + ", lseq " + std::to_string(d.lseq) +
             ") twice");
        continue;
      }
      flag = 1;
      r.counted[m][i] = 1;
      ++got;
    }
    r.matched += got;
    if (got < want) {
      for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t l = 0; l < msgs; ++l) {
          if (is_expected(m, s, l) && seen[s * msgs + l] == 0) {
            r.misses.push_back(Miss{static_cast<std::uint32_t>(m),
                                    static_cast<std::uint32_t>(s), l});
          }
        }
      }
      r.missing += want - got;
      note("member " + std::to_string(m) + " is missing " +
           std::to_string(want - got) + " of " + std::to_string(want) +
           " deliveries");
    }
  }

  // The library's own checker must agree; a verdict the counts above did not
  // catch still fails the run.
  core::DeliveryLog log;
  std::vector<NodeId> ids;
  for (std::size_t m = 0; m < n; ++m) {
    ids.push_back(NodeId::make(Tier::MH, static_cast<std::uint32_t>(m)));
  }
  log.reset(ids);
  for (std::size_t m = 0; m < n && m < per_mh.size(); ++m) {
    for (const DeliveredRec& d : per_mh[m]) {
      log.record(ids[m], d.gseq, d.source, d.lseq);
    }
  }
  const auto verdict = in.groups.multi() ? core::check_pairwise_order(log)
                                         : log.check_total_order();
  if (verdict && r.out_of_order == 0) {
    ++r.out_of_order;
    note(*verdict);
  }
  if (r.really_lost > 0) {
    note(std::to_string(r.really_lost) + " deliveries gap-skipped");
  }
  return r;
}

namespace {

using PerMh = std::vector<std::vector<DeliveredRec>>;

// A correct execution: messages ordered source-major, gseq = position, and
// each member delivers exactly its destined subsequence.
PerMh clean_log(std::size_t n, std::uint32_t msgs,
                const core::GroupConfig& groups) {
  PerMh out(n);
  GlobalSeq g = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint64_t l = 0; l < msgs; ++l, ++g) {
      for (std::size_t m = 0; m < n; ++m) {
        if (destined(m, s, l, groups)) {
          out[m].push_back(DeliveredRec{g, NodeId{s}, l});
        }
      }
    }
  }
  return out;
}

std::optional<std::string> self_test_config(const core::GroupConfig& groups,
                                            const char* label) {
  constexpr std::size_t kN = 4;
  constexpr std::uint32_t kMsgs = 6;
  const PerMh clean = clean_log(kN, kMsgs, groups);
  const auto verdict = [&](const PerMh& log) {
    GateInput in;
    in.n_mh = kN;
    in.msgs_per_source = kMsgs;
    in.groups = groups;
    in.per_mh = &log;
    return run_gate(in);
  };
  const GateResult ok = verdict(clean);
  if (ok.failed() != 0 || ok.matched != ok.expected || ok.expected == 0) {
    return std::string(label) + ": gate rejected a clean log: " +
           ok.first_error.value_or("counts disagree");
  }
  // Pick a member with at least two deliveries to break.
  std::size_t victim = 0;
  while (victim < kN && clean[victim].size() < 2) ++victim;
  if (victim == kN) return std::string(label) + ": no member to break";

  PerMh shorted = clean;
  shorted[victim].pop_back();
  PerMh swapped = clean;
  std::swap(swapped[victim][0], swapped[victim][1]);
  PerMh duplicated = clean;
  duplicated[victim].insert(duplicated[victim].begin() + 1,
                            duplicated[victim][0]);
  const std::pair<const char*, const PerMh*> broken[] = {
      {"short-delivered member", &shorted},
      {"swapped pair", &swapped},
      {"duplicate", &duplicated},
  };
  for (const auto& [what, log] : broken) {
    if (verdict(*log).failed() == 0) {
      return std::string(label) + ": gate accepted a " + what;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> gate_self_test() {
  if (auto err = self_test_config(core::GroupConfig{}, "single-group")) {
    return err;
  }
  core::GroupConfig multi;
  multi.count = 4;
  multi.groups_per_mh = 2;
  multi.dest_groups = 1;
  return self_test_config(multi, "multi-group");
}

}  // namespace ringbench
