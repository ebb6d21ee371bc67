// Whole-node allocation strategies.
//
// HPC schedulers hand out whole nodes; an allocation picks enough free
// nodes to host nprocs processes given each node's core count.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "hw/node.hpp"

namespace pcap::sched {

enum class AllocationStrategy {
  kFirstFit,  ///< lowest-id free nodes (contiguous-ish, deterministic)
  kRandom,    ///< uniformly random free nodes (spreads heat)
};

struct Allocation {
  std::vector<hw::NodeId> nodes;
  std::vector<int> procs_per_node;  ///< parallel to `nodes`
};

/// Chooses free nodes for `nprocs` processes.
/// `free_nodes` lists candidate node ids in ascending order;
/// `cores_of(id)` gives each node's core count. Returns nullopt when the
/// free pool cannot host the job.
class Allocator {
 public:
  Allocator(AllocationStrategy strategy, common::Rng rng);

  /// `max_procs_per_node` caps ranks placed per node (0 = the node's core
  /// count). HPC launchers spread memory-bandwidth-bound MPI ranks across
  /// nodes rather than packing cores, so class-D NPB placements are wide.
  /// First-fit walks the span in place — no copy of the free list; only
  /// the random strategy materialises a shuffled copy.
  std::optional<Allocation> allocate(std::span<const hw::NodeId> free_nodes,
                                     const std::vector<int>& cores_per_node,
                                     int nprocs, int max_procs_per_node = 0);

  [[nodiscard]] AllocationStrategy strategy() const { return strategy_; }

 private:
  AllocationStrategy strategy_;
  common::Rng rng_;
  std::vector<hw::NodeId> order_scratch_;  ///< random strategy's shuffle
};

}  // namespace pcap::sched
