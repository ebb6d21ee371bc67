// Memory-footprint regression tests for per-candidate control-plane state.
//
// This binary replaces the global operator new/delete with a counting
// version (each block carries a small header recording its size), so a
// test can read how many bytes an operation allocated and how many stay
// live afterwards. The bounds are set from measurement and documented
// where they are asserted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <vector>

#include "hw/node_spec.hpp"
#include "power/manager.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/collector.hpp"
#include "workload/npb.hpp"

namespace {

std::atomic<std::int64_t> g_allocated{0};  ///< bytes ever allocated
std::atomic<std::int64_t> g_live{0};       ///< bytes currently allocated

/// Header in front of every block; 16 bytes keeps the payload aligned for
/// any fundamental type.
constexpr std::size_t kHeader = 16;

void* counted_alloc(std::size_t n) {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = n;
  g_allocated.fetch_add(static_cast<std::int64_t>(n),
                        std::memory_order_relaxed);
  g_live.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  return static_cast<char*>(raw) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(static_cast<std::int64_t>(*static_cast<std::size_t*>(raw)),
                   std::memory_order_relaxed);
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace pcap {
namespace {

// (c) The sample layout: narrow fields packed together, no 8-byte word
// spent on a lone 4-byte or 1-byte field. Every history arena slot pays
// this size history_depth times per candidate.
static_assert(sizeof(telemetry::NodeSample) <= 72,
              "NodeSample must stay packed (node, level, busy together)");

// (a) Installing 4096 candidates under an exact transport allocates the
// sample-history arena (history_depth x sizeof(NodeSample) per candidate)
// plus a small fixed per-candidate budget: the slot's agent and transport
// streams, its empty in-flight queue, the id -> slot entry and the
// per-slot cursors and change-tracking words. Measured at 154 B per
// candidate on x86-64 / libstdc++ (the slot struct plus ~42 B of parallel
// arrays); the budget of 256 B leaves room for another toolchain's layout.
// A per-slot container that allocates while empty breaks it: with a
// std::deque in-flight queue (its default constructor allocates a 512-byte
// node plus a map) the same call measured 1218 B per candidate.
TEST(Footprint, CollectorCandidateSetCostsArenaPlusSmallPerSlotBudget) {
  constexpr std::size_t kCandidates = 4096;
  constexpr std::size_t kPerSlotBudget = 256;
  telemetry::CollectorParams p;  // exact transport: no loss, no delay
  telemetry::Collector c(p, common::Rng(7));
  std::vector<hw::NodeId> ids(kCandidates);
  std::iota(ids.begin(), ids.end(), hw::NodeId{0});

  const std::int64_t before = g_allocated.load();
  c.set_candidate_set(ids);
  const auto bytes = static_cast<std::size_t>(g_allocated.load() - before);

  const std::size_t arena =
      p.history_depth * sizeof(telemetry::NodeSample) * kCandidates;
  EXPECT_GE(bytes, arena);
  EXPECT_LE(bytes, arena + kPerSlotBudget * kCandidates)
      << "per-candidate overhead "
      << static_cast<double>(bytes - arena) / kCandidates << " B";
}

/// Nodes, a scheduler and one job spanning every node: enough for both
/// manager kinds to build a full context and floor every node in red.
struct Rig {
  std::vector<hw::Node> nodes;
  sched::Scheduler scheduler;

  explicit Rig(std::size_t n)
      : scheduler(std::vector<int>(n, 12), {}, common::Rng(3)) {
    nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.emplace_back(static_cast<hw::NodeId>(i),
                         hw::tianhe1a_node_spec());
      hw::Node& node = nodes.back();
      hw::OperatingPoint op;
      op.cpu_utilization = 0.9;
      op.mem_used = node.spec().mem_total * 0.4;
      op.mem_total = node.spec().mem_total;
      op.tau = Seconds{1.0};
      op.nic_bandwidth = node.spec().nic_bandwidth;
      node.set_operating_point(op);
      node.set_busy(true);
    }
    scheduler.submit(workload::Job(
        1, workload::npb_by_name("lu", workload::NpbClass::kC),
        static_cast<int>(12 * n), Seconds{0.0}));
    scheduler.try_launch(Seconds{0.0});
  }
};

power::CappingManagerParams manager_params() {
  power::CappingManagerParams p;
  p.thresholds.provision = Watts{1000.0};
  p.thresholds.training_cycles = 0;
  p.thresholds.adjust_period_cycles = 1000;
  p.green_collect_stride = 1;
  return p;
}

/// Bytes a manager holds after set_candidate_set plus one red cycle (the
/// first context build, and a floor command for every node).
template <typename MakeManager>
std::int64_t live_bytes_after_first_build(std::size_t n, MakeManager make) {
  Rig rig(n);
  std::vector<hw::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), hw::NodeId{0});
  const std::int64_t before = g_live.load();
  auto manager = make();
  manager->set_candidate_set(ids);
  const power::ManagerReport r =
      manager->cycle(Watts{1e9}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_EQ(r.state, power::PowerState::kRed);
  EXPECT_EQ(r.targets, n);
  return g_live.load() - before;
}

// (b) Zoning splits the candidates; it must not multiply their state. A
// Z=8 block-zoned tree over N nodes holds its per-node tables per shard,
// each covering only that shard's id span, so after the first context
// build it holds about what one flat manager over the same N nodes does.
// Measured at 1.05x (N = 4096, x86-64 / libstdc++): the residue is
// per-shard fixed cost (eight policies and job indexes, each job index
// holding the running job's node list). The bound is 1.10x. With every
// shard's tables sized [0, max id] (shard z covering z + 1 eighths of the
// id range: 4.5 N entries per table over the eight shards) it measured
// 1.46x.
TEST(Footprint, BlockZonedTreeHoldsAboutWhatAFlatManagerDoes) {
  constexpr std::size_t kNodes = 4096;
  const std::int64_t flat = live_bytes_after_first_build(kNodes, [] {
    return std::make_unique<power::CappingManager>(
        manager_params(), power::make_policy("mpc"), common::Rng(1));
  });
  const std::int64_t tree = live_bytes_after_first_build(kNodes, [] {
    power::ZoneTreeParams zp;
    zp.zone_count = 8;
    zp.assignment = power::ZoneTreeParams::Assignment::kBlock;
    return std::make_unique<power::ZoneTreeManager>(
        zp, manager_params(), [] { return power::make_policy("mpc"); },
        common::Rng(1));
  });
  ASSERT_GT(flat, 0);
  EXPECT_LE(static_cast<double>(tree), 1.10 * static_cast<double>(flat))
      << "tree " << tree << " B vs flat " << flat << " B ("
      << static_cast<double>(tree) / static_cast<double>(flat) << "x)";
}

}  // namespace
}  // namespace pcap
