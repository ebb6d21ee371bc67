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

// (c) The sample layouts: narrow fields packed together, no 8-byte word
// spent on a lone 4-byte or 1-byte field. Every history arena slot pays
// sizeof(HeldSample) once per held sample per candidate; a NodeSample
// lives only between the agent and the collector's conversion.
static_assert(sizeof(telemetry::NodeSample) <= 64,
              "NodeSample must stay packed (node, level, busy together)");
static_assert(sizeof(telemetry::HeldSample) <= 32,
              "HeldSample must stay packed (level and busy share a word)");

constexpr std::size_t kCandidates = 4096;

/// What installing kCandidates candidates into a fresh collector
/// allocates: the sample-history arena (the window the collector actually
/// holds x sizeof(HeldSample) per candidate) and the per-candidate rest.
struct CollectorInstall {
  std::size_t window = 0;
  std::size_t arena = 0;
  std::size_t bytes = 0;
  [[nodiscard]] double per_slot() const {
    return static_cast<double>(bytes - arena) / kCandidates;
  }
};

CollectorInstall install_candidates(const telemetry::CollectorParams& p) {
  telemetry::Collector c(p, common::Rng(7));
  std::vector<hw::NodeId> ids(kCandidates);
  std::iota(ids.begin(), ids.end(), hw::NodeId{0});
  const std::int64_t before = g_allocated.load();
  c.set_candidate_set(ids);
  CollectorInstall out;
  out.bytes = static_cast<std::size_t>(g_allocated.load() - before);
  out.window = c.history(0)->capacity();
  out.arena = out.window * sizeof(telemetry::HeldSample) * kCandidates;
  return out;
}

// (a) Installing 4096 candidates under an exact transport with no fault
// process allocates a two-sample history arena plus a small fixed
// per-candidate budget: the candidate id, the id -> slot entry and the
// two per-slot history cursors — no agent and no transport state (agent
// noise is counter-keyed, so a slot carries no generator). Measured at
// 16 B per candidate on x86-64 / libstdc++; the budget of 20 B leaves a
// little room for another toolchain's layout but not for one more 8-byte
// per-slot word. A per-slot container that allocates while empty breaks
// it: with a std::deque in-flight queue (its default constructor
// allocates a 512-byte node plus a map) the call measured 1218 B per
// candidate; a stateful per-slot agent generator measured 56 B more.
TEST(Footprint, CollectorCandidateSetCostsArenaPlusSmallPerSlotBudget) {
  constexpr std::size_t kPerSlotBudget = 20;
  telemetry::CollectorParams p;  // exact transport, no faults
  const CollectorInstall r = install_candidates(p);
  EXPECT_EQ(r.window, 2u);
  EXPECT_GE(r.bytes, r.arena);
  EXPECT_LE(r.bytes, r.arena + kPerSlotBudget * kCandidates)
      << "per-candidate overhead " << r.per_slot() << " B";
}

// (a') Corruption is the one fault that makes the manager read past the
// newest two samples, so it alone buys the history_depth-deep arena. The
// fault injector adds its per-node state (40 B); the rest is the same as
// (a). Measured at 56 B per candidate; budget 136 B.
TEST(Footprint, CollectorWithCorruptionHoldsTheFullHistoryDepth) {
  constexpr std::size_t kPerSlotBudget = 136;
  telemetry::CollectorParams p;
  p.faults.corruption_rate = 0.01;
  const CollectorInstall r = install_candidates(p);
  EXPECT_EQ(r.window, p.history_depth);
  EXPECT_GE(r.bytes, r.arena);
  EXPECT_LE(r.bytes, r.arena + kPerSlotBudget * kCandidates)
      << "per-candidate overhead " << r.per_slot() << " B";
}

// (a'') A lossy, delayed transport keeps the two-sample window and adds
// its per-slot state: the in-flight queue (24 B while empty). The loss
// draw is counter-keyed and holds no per-slot stream. Measured at 40 B
// per candidate; budget 160 B.
TEST(Footprint, CollectorWithLossAndDelayAddsOnlyTransportState) {
  constexpr std::size_t kPerSlotBudget = 160;
  telemetry::CollectorParams p;
  p.transport.loss_rate = 0.1;
  p.transport.delay_cycles = 2;
  const CollectorInstall r = install_candidates(p);
  EXPECT_EQ(r.window, 2u);
  EXPECT_GE(r.bytes, r.arena);
  EXPECT_LE(r.bytes, r.arena + kPerSlotBudget * kCandidates)
      << "per-candidate overhead " << r.per_slot() << " B";
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
// Measured at 1.06x (N = 4096, x86-64 / libstdc++; 356.8 vs 337.8 B per
// node): the residue is per-shard fixed cost (eight policies and job
// indexes). The bound is 1.10x. With every
// shard's tables sized [0, max id] (shard z covering z + 1 eighths of the
// id range: 4.5 N entries per table over the eight shards) it measured
// 1.46x.
TEST(Footprint, BlockZonedTreeHoldsAboutWhatAFlatManagerDoes) {
  constexpr std::size_t kNodes = 4096;
  const std::int64_t flat = live_bytes_after_first_build(kNodes, [] {
    return std::make_unique<power::ZoneTreeManager>(
        power::ZoneTreeParams{}, manager_params(),
        [] { return power::make_policy("mpc"); }, common::Rng(1));
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

// (d) A flat manager holds each candidate's sample and view once: the
// history arena keeps 32-byte held samples, not the agent's whole report,
// the context's views are built in place in ctx.nodes, not in a per-slot
// record first and copied, and A_degraded costs one byte per candidate id.
// Measured at 234.9 B per node after the first build (N = 4096, mpc-c, a
// red cycle, so every candidate is degraded; x86-64 / libstdc++); 289.9 B
// with 40-byte samples and a std::set A_degraded. 72-byte samples in the
// two-sample arena add 80 B, a copy of each view in the per-slot record
// 56 B; the budget of 260 B fails if either comes back, or a tree-node
// A_degraded.
TEST(Footprint, FlatManagerHoldsEachCandidateOnce) {
  constexpr std::size_t kNodes = 4096;
  constexpr double kPerNodeBudget = 260.0;
  const std::int64_t flat = live_bytes_after_first_build(kNodes, [] {
    return std::make_unique<power::ZoneTreeManager>(
        power::ZoneTreeParams{}, manager_params(),
        [] { return power::make_policy("mpc-c"); }, common::Rng(1));
  });
  const double per_node = static_cast<double>(flat) / kNodes;
  EXPECT_LE(per_node, kPerNodeBudget) << "live " << per_node << " B per node";
}

}  // namespace
}  // namespace pcap
