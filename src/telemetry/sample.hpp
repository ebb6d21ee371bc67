// Telemetry sample types.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "hw/dvfs.hpp"
#include "hw/node.hpp"

namespace pcap::telemetry {

/// One observation of a node, as a profiling agent reports it to the
/// global manager: the /proc-style counters of §V.A plus the formula-(1)
/// power estimate computed locally on the node. This is what the agent
/// produces and the fault injector mangles; the collector keeps only the
/// HeldSample part of it.
///
/// The narrow fields (node, level, busy) sit together at the front, where
/// they pack into two 8-byte words instead of three padded ones.
struct NodeSample {
  hw::NodeId node = 0;
  hw::Level level = 0;
  bool busy = false;
  Seconds time{0.0};
  double cpu_utilization = 0.0;
  Bytes mem_used{0.0};
  Bytes nic_bytes{0.0};
  Watts estimated_power{0.0};
  Celsius temperature{0.0};  ///< on-board sensor reading
};

/// The part of a report the collector keeps: the fields the manager reads
/// (§II.C, §IV.B) plus the cycle stamp. Counters and the node id end at
/// the collector — a history slot is indexed by candidate, and nothing
/// past the sweep reads CPU, memory or NIC figures. 40 bytes per held
/// sample, in every slot of every history arena and in-flight queue.
struct HeldSample {
  /// Collection cycle at which the agent took this sample (stamped by the
  /// collector). Consumers subtract it from the current cycle to know how
  /// old the data they are acting on really is — under a lossy or delayed
  /// management plane "latest" can be many cycles stale.
  std::uint64_t cycle = 0;
  Seconds time{0.0};
  Watts estimated_power{0.0};
  Celsius temperature{0.0};
  hw::Level level = 0;
  bool busy = false;

  static HeldSample of(const NodeSample& s, std::uint64_t cycle) {
    return HeldSample{cycle, s.time, s.estimated_power, s.temperature,
                      s.level, s.busy};
  }
};

}  // namespace pcap::telemetry
