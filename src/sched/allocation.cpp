#include "sched/allocation.hpp"

#include <algorithm>
#include <stdexcept>

namespace pcap::sched {

Allocator::Allocator(AllocationStrategy strategy, common::Rng rng)
    : strategy_(strategy), rng_(rng) {}

std::optional<Allocation> Allocator::allocate(
    std::span<const hw::NodeId> free_nodes,
    const std::vector<int>& cores_per_node, int nprocs,
    int max_procs_per_node) {
  if (nprocs <= 0) throw std::invalid_argument("Allocator: nprocs <= 0");
  if (max_procs_per_node < 0) {
    throw std::invalid_argument("Allocator: negative per-node cap");
  }

  std::span<const hw::NodeId> order = free_nodes;
  if (strategy_ == AllocationStrategy::kRandom) {
    order_scratch_.assign(free_nodes.begin(), free_nodes.end());
    rng_.shuffle(order_scratch_);
    order = order_scratch_;
  }

  Allocation alloc;
  int remaining = nprocs;
  for (const hw::NodeId id : order) {
    if (remaining <= 0) break;
    int cores = cores_per_node.at(id);
    if (cores <= 0) continue;
    if (max_procs_per_node > 0) cores = std::min(cores, max_procs_per_node);
    const int placed = std::min(remaining, cores);
    alloc.nodes.push_back(id);
    alloc.procs_per_node.push_back(placed);
    remaining -= placed;
  }
  if (remaining > 0) return std::nullopt;
  return alloc;
}

}  // namespace pcap::sched
