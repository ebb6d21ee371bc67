// Control-plane cycles/second: the manager's non-green control cycle
// (context assembly + target selection + actuation bookkeeping) measured
// in steady state, independent of the data-plane tick.
//
// Three measurements per candidate count, serial and parallel:
//   yellow   — full one-zone ZoneTreeManager::cycle (the flat controller)
//              with the meter pinned mid-band (collect + context build +
//              policy select + actuation)
//   red      — full cycle with the meter pinned above P_H (everything
//              floors on the first cycle; the steady remainder is context
//              assembly + the idempotent red walk)
//   ctx+sel  — build_context_into + policy select alone, the two stages
//              this bench exists to track (no collection, no actuation)
//
// Usage: bench_control_cycle [--json] [node_count...]
//   default node counts: 1024 8192 32768 131072 1048576
//
// Serial = no thread pool attached; parallel = pool at hardware
// concurrency. Results land in BENCH_control_cycle.json at the repo root
// when they change materially.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "hw/node_spec.hpp"
#include "power/manager.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"
#include "sched/scheduler.hpp"
#include "workload/npb.hpp"

using namespace pcap;

namespace {

struct Case {
  std::size_t nodes;
  int yellow_cycles;  // measured full yellow cycles
  int red_cycles;     // measured full red cycles
  int ctx_iters;      // measured context+select iterations
};

/// A full machine: every node busy at a realistic operating point, jobs of
/// ~32 nodes each covering the whole population.
struct Rig {
  std::vector<hw::Node> nodes;
  std::unique_ptr<sched::Scheduler> scheduler;

  explicit Rig(std::size_t n) {
    const hw::NodeSpecPtr spec = hw::tianhe1a_node_spec();
    nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.emplace_back(static_cast<hw::NodeId>(i), spec);
    }
    sched::SchedulerOptions opts;
    opts.max_procs_per_node = 3;
    scheduler = std::make_unique<sched::Scheduler>(
        std::vector<int>(n, spec->total_cores()), opts, common::Rng(7));

    // 32 nodes per job; fill the machine, then one launch pass.
    const int procs_per_job = 3 * 32;
    const std::size_t num_jobs = n / 32;
    for (std::size_t j = 0; j < num_jobs; ++j) {
      scheduler->submit(workload::Job(
          static_cast<workload::JobId>(j + 1),
          workload::npb_by_name("lu", workload::NpbClass::kD), procs_per_job,
          Seconds{0.0}));
    }
    scheduler->try_launch(Seconds{0.0});

    for (std::size_t i = 0; i < n; ++i) {
      hw::Node& node = nodes[i];
      hw::OperatingPoint op;
      // Mild per-node spread so job powers differ and sorting policies
      // have real work to order.
      op.cpu_utilization = 0.70 + 0.25 * static_cast<double>(i % 17) / 17.0;
      op.mem_used = node.spec().mem_total * 0.4;
      op.mem_total = node.spec().mem_total;
      op.tau = Seconds{1.0};
      op.nic_bandwidth = node.spec().nic_bandwidth;
      node.set_operating_point(op);
      node.set_busy(true);
    }
  }
};

struct Result {
  double yellow_cps = 0.0;
  double red_cps = 0.0;
  double ctx_select_ips = 0.0;
};

power::CappingManagerParams manager_params(Watts provision) {
  power::CappingManagerParams p;
  p.thresholds.provision = provision;
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.thresholds.adjust_period_cycles = 1'000'000;
  p.collector.agent.utilization_noise = 0.0;
  p.collector.agent.nic_noise = 0.0;
  // The green warmup cycles exist to fill the telemetry histories; with
  // the steady-green stride at its default (16) they would all skip the
  // sweep and the ctx+sel loop would measure context assembly over empty
  // histories (every view missing, every selection empty). Non-green
  // cycles always collect, so the stride does not touch the timed loops.
  p.green_collect_stride = 1;
  return p;
}

double timed(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

Result run_case(const Case& c, bool parallel) {
  std::unique_ptr<common::ThreadPool> pool;
  if (parallel) pool = std::make_unique<common::ThreadPool>(0);

  // The provision anchors the frozen thresholds; the meter reading is
  // synthetic and pinned per state, so only classification — not the node
  // population's true draw — depends on it.
  const Watts provision{1000.0 * static_cast<double>(c.nodes)};
  const Watts green = provision * 0.5;
  const Watts yellow = provision * 0.88;  // in [0.84, 0.93) x provision
  const Watts red = provision * 0.95;

  Result out;
  std::vector<hw::NodeId> all_ids;
  all_ids.reserve(c.nodes);
  for (std::size_t i = 0; i < c.nodes; ++i) {
    all_ids.push_back(static_cast<hw::NodeId>(i));
  }

  // -- yellow: full control cycles --
  {
    Rig rig(c.nodes);
    power::ZoneTreeManager mgr(
        power::ZoneTreeParams{}, manager_params(provision),
        [] { return power::make_policy("mpc-c"); }, common::Rng(42));
    mgr.set_thread_pool(pool.get());
    mgr.set_candidate_set(all_ids);
    double now = 1.0;
    for (int i = 0; i < 3; ++i) {  // fill histories (green: no context)
      mgr.cycle(green, rig.nodes, *rig.scheduler, Seconds{now});
      now += 1.0;
    }
    const double secs = timed([&] {
      for (int i = 0; i < c.yellow_cycles; ++i) {
        mgr.cycle(yellow, rig.nodes, *rig.scheduler, Seconds{now});
        now += 1.0;
      }
    });
    out.yellow_cps = c.yellow_cycles / secs;
  }

  // -- red: full control cycles (steady after the first floor) --
  {
    Rig rig(c.nodes);
    power::ZoneTreeManager mgr(
        power::ZoneTreeParams{}, manager_params(provision),
        [] { return power::make_policy("mpc-c"); }, common::Rng(42));
    mgr.set_thread_pool(pool.get());
    mgr.set_candidate_set(all_ids);
    double now = 1.0;
    for (int i = 0; i < 3; ++i) {
      mgr.cycle(green, rig.nodes, *rig.scheduler, Seconds{now});
      now += 1.0;
    }
    // First red cycle floors everything; measure the steady remainder.
    mgr.cycle(red, rig.nodes, *rig.scheduler, Seconds{now});
    now += 1.0;
    const double secs = timed([&] {
      for (int i = 0; i < c.red_cycles; ++i) {
        mgr.cycle(red, rig.nodes, *rig.scheduler, Seconds{now});
        now += 1.0;
      }
    });
    out.red_cps = c.red_cycles / secs;
  }

  // -- context assembly + selection in isolation --
  {
    Rig rig(c.nodes);
    power::ZoneTreeManager mgr(
        power::ZoneTreeParams{}, manager_params(provision),
        [] { return power::make_policy("mpc-c"); }, common::Rng(42));
    mgr.set_thread_pool(pool.get());
    mgr.set_candidate_set(all_ids);
    double now = 1.0;
    for (int i = 0; i < 3; ++i) {
      mgr.cycle(green, rig.nodes, *rig.scheduler, Seconds{now});
      now += 1.0;
    }
    power::PolicyPtr policy = power::make_policy("mpc-c");
    power::PolicyContext ctx;
    // Warm the context's buffers once so the loop measures steady state.
    const power::CappingManager& shard = mgr.zone(0);
    shard.build_context_into(ctx, rig.nodes, *rig.scheduler);
    ctx.system_power = yellow;
    ctx.p_low = mgr.root().thresholds().p_low();
    std::size_t sink = 0;
    const double secs = timed([&] {
      for (int i = 0; i < c.ctx_iters; ++i) {
        shard.build_context_into(ctx, rig.nodes, *rig.scheduler);
        sink += policy->select(ctx).size();
      }
    });
    if (sink == 0) std::fprintf(stderr, "warning: empty selections\n");
    out.ctx_select_ips = c.ctx_iters / secs;
  }

  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<Case> cases = {{1024, 4000, 4000, 6000},
                             {8192, 600, 600, 800},
                             {32768, 120, 120, 160},
                             {131072, 30, 30, 40},
                             {1048576, 8, 8, 10}};
  std::vector<Case> chosen;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
      continue;
    }
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(argv[i], &end, 10);
    if (end == argv[i] || *end != '\0' || parsed < 64 ||
        parsed > 2'000'000ULL || argv[i][0] == '-') {
      std::fprintf(stderr,
                   "bench_control_cycle: bad arg '%s' (expected --json or a "
                   "node count in [64, 2000000])\n",
                   argv[i]);
      return 2;
    }
    const auto want = static_cast<std::size_t>(parsed);
    bool found = false;
    for (const Case& c : cases) {
      if (c.nodes == want) {
        chosen.push_back(c);
        found = true;
      }
    }
    if (!found) {
      const int budget = static_cast<int>(
          std::max<std::size_t>(20, 4'000'000 / std::max<std::size_t>(want, 1)));
      chosen.push_back(Case{want, budget, budget, budget});
    }
  }
  if (!chosen.empty()) cases = std::move(chosen);

  if (json) std::printf("[");
  bool first = true;
  if (!json) {
    std::printf("%8s  %12s  %14s  %11s  %13s  %14s  %16s\n", "nodes",
                "yellow c/s", "yellow-par c/s", "red c/s", "red-par c/s",
                "ctx+sel it/s", "ctx+sel-par it/s");
  }
  for (const Case& c : cases) {
    const Result serial = run_case(c, false);
    const Result parallel = run_case(c, true);
    if (json) {
      std::printf(
          "%s\n  {\"nodes\": %zu, \"yellow_serial_cps\": %.2f, "
          "\"yellow_parallel_cps\": %.2f, \"red_serial_cps\": %.2f, "
          "\"red_parallel_cps\": %.2f, \"ctx_select_serial_ips\": %.2f, "
          "\"ctx_select_parallel_ips\": %.2f}",
          first ? "" : ",", c.nodes, serial.yellow_cps, parallel.yellow_cps,
          serial.red_cps, parallel.red_cps, serial.ctx_select_ips,
          parallel.ctx_select_ips);
      first = false;
    } else {
      std::printf("%8zu  %12.2f  %14.2f  %11.2f  %13.2f  %14.2f  %16.2f\n",
                  c.nodes, serial.yellow_cps, parallel.yellow_cps,
                  serial.red_cps, parallel.red_cps, serial.ctx_select_ips,
                  parallel.ctx_select_ips);
    }
    std::fflush(stdout);
  }
  if (json) std::printf("\n]\n");
  return 0;
}
