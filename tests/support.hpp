// Helpers shared by the manager and fault-tolerance suites: the one-zone
// tree (the flat controller), the PCAP_FAULT_SEED hook and the
// precondition every seed-swept rig states before it compares anything.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "metrics/trace_recorder.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"

namespace pcap::test {

/// The flat controller over `params`: a one-zone tree running the named
/// registry policy.
inline power::ZoneTreeManager one_zone(const power::CappingManagerParams& params,
                                       const std::string& policy = "mpc",
                                       common::Rng rng = common::Rng(1)) {
  return power::ZoneTreeManager(
      power::ZoneTreeParams{}, params,
      [policy] { return power::make_policy(policy); }, rng);
}

/// CI sweeps the seed-agnostic fault rigs across PCAP_FAULT_SEED=1..N;
/// without it a rig runs on `fallback`.
inline std::uint64_t fault_seed(std::uint64_t fallback) {
  const char* env = std::getenv("PCAP_FAULT_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

/// The precondition of a seed-swept rig: the run capped (some cycle left
/// green) and commands flowed (targets were selected and transitions
/// reached nodes). On a seed where the loop never closes, no fault path
/// acts and a determinism comparison passes between two idle runs.
inline ::testing::AssertionResult capped_and_commanded(
    const std::vector<metrics::CyclePoint>& points) {
  std::size_t capped = 0;
  std::size_t targets = 0;
  std::size_t transitions = 0;
  for (const metrics::CyclePoint& p : points) {
    if (p.state != 0) ++capped;
    targets += p.targets;
    transitions += p.transitions;
  }
  if (capped == 0) {
    return ::testing::AssertionFailure()
           << "the run never left green over " << points.size()
           << " cycles: this seed exercises no capping path";
  }
  if (targets == 0 || transitions == 0) {
    return ::testing::AssertionFailure()
           << "no commands flowed (" << capped << " capped cycles, "
           << targets << " targets, " << transitions << " transitions)";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace pcap::test
