// Per-node profiling agent.
//
// §II.C: "We deploy a profiling agent to each node in the candidate set to
// profile its local operation state." An agent reads the node's counters
// the way /proc and the NIC log would expose them — i.e. with a little
// sampling noise — and evaluates formula (1) locally.
// An agent keeps no state: its noise is keyed by (collector root, node id,
// collection cycle), so a skipped cycle moves no later sample.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "telemetry/sample.hpp"

namespace pcap::telemetry {

struct AgentParams {
  /// Absolute gaussian noise on the CPU utilisation reading.
  double utilization_noise = 0.01;
  /// Relative gaussian noise on the NIC byte counter.
  double nic_noise = 0.02;
};

/// Samples node `id` of `pool` (indexed by id) at `now`. The noise comes
/// from CounterRng(cycle_key, id), cycle_key = counter_key(root, cycle):
/// utilisation first, then NIC, each drawn only when non-zero. The power
/// estimate is formula (1) at the node's level. The board temperature is
/// read only when `read_temperature` is set; otherwise it stays 0 and the
/// node's thermal state is not advanced. Skipping the read changes no
/// physics only while the node's leakage_coefficient is 0: with leakage on,
/// the thermal state feeds true power, and a node integrated over longer
/// steps draws slightly different power — so the simulated power would
/// depend on whether the policy reads temperature. Throws
/// std::invalid_argument when pool[id] is another node.
inline NodeSample sample_node(const std::vector<hw::Node>& pool,
                              hw::NodeId id, Seconds now,
                              const AgentParams& params,
                              std::uint64_t cycle_key, bool read_temperature) {
  const hw::Node& node = pool[id];
  if (node.id() != id) {
    throw std::invalid_argument("sample_node: node pool not indexed by id");
  }
  // Observed counters: the true pool values plus sampling noise — read
  // field by field, not via the assembled operating_point() (this sweep
  // touches every candidate node per collection). The power estimate
  // reuses the node's cached formula-(1) static split
  // (estimated_power_observed) instead of a full model evaluation — same
  // arithmetic as PowerModel::power term by term, a fraction of the cost.
  double observed_cpu = node.cpu_utilization();
  double observed_nic = node.nic_bytes();
  common::CounterRng noise(cycle_key, id);
  if (params.utilization_noise > 0.0) {
    observed_cpu = std::clamp(
        observed_cpu + params.utilization_noise * noise.normal(), 0.0, 1.0);
  }
  if (params.nic_noise > 0.0) {
    observed_nic *= std::max(0.0, 1.0 + params.nic_noise * noise.normal());
  }

  NodeSample s;
  s.node = id;
  s.time = now;
  s.cpu_utilization = observed_cpu;
  s.mem_used = Bytes{node.mem_used()};
  s.nic_bytes = Bytes{observed_nic};
  s.level = node.level();
  s.estimated_power =
      node.estimated_power_observed(observed_cpu, observed_nic);
  // Reading a temperature is what fast-forwards the node's lazy thermal
  // state: quiescent nodes integrate the RC exponential only when someone
  // actually looks.
  if (read_temperature) s.temperature = node.temperature_at(now);
  s.busy = node.busy();
  return s;
}

}  // namespace pcap::telemetry
