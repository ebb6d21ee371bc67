// Figure 5 — Scalability of the global manager.
//
// The paper shows the central management node's CPU utilisation rising
// non-linearly with |A_candidate|. We report two independent measurements
// for candidate sets of 8..128 nodes:
//   * the management-cost model's utilisation (what a production
//     deployment would budget), and
//   * the real wall-clock time of one full control cycle of our
//     one-zone capping manager (collect + context build + Algorithm 1),
//     measured on the host that runs the bench.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "hw/node_spec.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"
#include "workload/job_generator.hpp"
#include "workload/npb.hpp"

namespace {

using namespace pcap;

/// Builds a loaded 128-node rig with jobs covering the machine.
struct Rig {
  std::vector<hw::Node> nodes;
  sched::Scheduler scheduler;

  Rig()
      : scheduler(std::vector<int>(128, 12), sched::SchedulerOptions{},
                  common::Rng(9)) {
    common::Rng var(17);
    for (int i = 0; i < 128; ++i) {
      nodes.emplace_back(static_cast<hw::NodeId>(i), hw::tianhe1a_node_spec(),
                         &var);
    }
    // One single-node job per node: the monitored-job count then scales
    // with the candidate-set size, which is what drives the manager's
    // super-linear node-to-job aggregation cost.
    auto gen = workload::JobGenerator(
        workload::npb_suite(), std::vector<int>{12}, common::Rng(5));
    for (int j = 0; j < 128; ++j) {
      scheduler.submit(gen.next(Seconds{0.0}));
      scheduler.try_launch(Seconds{0.0});
    }
    common::Rng util(7);
    for (auto& n : nodes) {
      hw::OperatingPoint op;
      op.cpu_utilization = util.uniform(0.2, 0.95);
      op.mem_used = n.spec().mem_total * util.uniform(0.2, 0.6);
      op.mem_total = n.spec().mem_total;
      op.nic_bytes = Bytes{util.uniform(0.0, 2e9)};
      op.tau = Seconds{1.0};
      op.nic_bandwidth = n.spec().nic_bandwidth;
      n.set_operating_point(op);
      n.set_busy(scheduler.job_on_node(n.id()).has_value());
    }
  }
};

}  // namespace

int main() {
  using namespace pcap;
  bench::print_header(
      "Figure 5: scalability of the global manager",
      "central-manager CPU utilisation grows non-linearly with |A_candidate|");

  Rig rig;
  metrics::Table table({"|A_candidate|", "monitored jobs", "model cost (us)",
                        "model util (1s cycle)", "measured cycle (us)"});

  double first_model = 0.0;
  double last_model = 0.0;
  std::size_t first_n = 0;
  std::size_t last_n = 0;
  for (const int n : {8, 16, 32, 48, 64, 96, 128}) {
    power::CappingManagerParams params;
    params.thresholds.provision = Watts{40000.0};
    params.thresholds.training_cycles = 0;
    params.collector.agent.utilization_noise = 0.0;
    params.collector.agent.nic_noise = 0.0;
    power::ZoneTreeManager mgr(power::ZoneTreeParams{}, params,
                               [] { return power::make_policy("mpc"); },
                               common::Rng(3));
    std::vector<hw::NodeId> candidates;
    for (int i = 0; i < n; ++i) candidates.push_back(static_cast<hw::NodeId>(i));
    mgr.set_candidate_set(candidates);

    // Count the jobs that actually touch the candidate set.
    std::size_t monitored_jobs = 0;
    for (const auto jid : rig.scheduler.running_jobs()) {
      const auto* job = rig.scheduler.find(jid);
      for (const auto nid : job->nodes()) {
        if (nid < static_cast<hw::NodeId>(n)) {
          ++monitored_jobs;
          break;
        }
      }
    }

    // Warm up, then time repeated control cycles.
    const Watts reading{36000.0};
    mgr.cycle(reading, rig.nodes, rig.scheduler, Seconds{1.0});
    const int reps = 200;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      mgr.cycle(reading, rig.nodes, rig.scheduler,
                Seconds{2.0 + static_cast<double>(r)});
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double measured_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / reps;

    const auto& cost = mgr.zone(0).collector().cost_model();
    const double model_us =
        cost.cycle_cost_us(static_cast<std::size_t>(n), monitored_jobs);
    const double model_util = cost.cpu_utilization(
        static_cast<std::size_t>(n), monitored_jobs, Seconds{1.0});

    if (first_n == 0) {
      first_n = static_cast<std::size_t>(n);
      first_model = model_us;
    }
    last_n = static_cast<std::size_t>(n);
    last_model = model_us;

    table.cell(static_cast<std::int64_t>(n))
        .cell(monitored_jobs)
        .cell(model_us, 1)
        .cell_percent(model_util, 3)
        .cell(measured_us, 1);
    table.end_row();
  }
  table.print();

  const double n_growth =
      static_cast<double>(last_n) / static_cast<double>(first_n);
  const double cost_growth = last_model / first_model;
  std::printf(
      "\ncandidate set grew %.0fx; modelled cost grew %.1fx -> %s\n",
      n_growth, cost_growth,
      cost_growth > n_growth ? "super-linear (matches Figure 5)"
                             : "NOT super-linear (mismatch)");
  return 0;
}
