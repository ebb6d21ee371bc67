// Watch the threshold learner at work (§III.A): P_L and P_H start from
// the provision capability, adopt the observed peak when training ends,
// and re-adjust every t_p cycles afterwards.
//
//   ./build/examples/threshold_learning
#include <cstdio>

#include "cluster/cluster.hpp"
#include "cluster/scenario.hpp"
#include "metrics/report.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"

int main() {
  using namespace pcap;

  cluster::ExperimentConfig cfg = cluster::small_scenario(7);
  cfg.cluster.num_nodes = 32;

  cluster::Cluster cl(cfg.cluster);

  power::CappingManagerParams params;
  params.thresholds.provision = cl.theoretical_peak() * 0.8;
  // 30 min training, adjust every 10 min, on the 4 s control cycle.
  params.thresholds.training_cycles =
      static_cast<std::int64_t>(1800.0 / cfg.cluster.control_period.value());
  params.thresholds.adjust_period_cycles =
      static_cast<std::int64_t>(600.0 / cfg.cluster.control_period.value());
  params.cycle_period = cfg.cluster.control_period;

  auto manager = std::make_unique<power::ZoneTreeManager>(
      power::ZoneTreeParams{}, params, [] { return power::make_policy("mpc"); },
      common::Rng(3));
  manager->set_candidate_set(cl.controllable_nodes());
  const power::ZoneTreeManager* mgr = manager.get();
  cl.set_manager(std::move(manager));

  std::printf("provision P_Max = %.0f W (thresholds start from it)\n\n",
              params.thresholds.provision.value());

  metrics::Table table({"t (min)", "phase", "P (W)", "P_peak (W)", "P_L (W)",
                        "P_H (W)", "adjustments"});
  for (int minute = 5; minute <= 90; minute += 5) {
    cl.run(Seconds{300.0});
    const auto& learner = mgr->root().thresholds();
    table.cell(static_cast<std::int64_t>(minute))
        .cell(learner.training() ? "training" : "managing")
        .cell(cl.last_power().value(), 0)
        .cell(learner.p_peak().value(), 0)
        .cell(learner.p_low().value(), 0)
        .cell(learner.p_high().value(), 0)
        .cell(static_cast<std::int64_t>(learner.adjustments()));
    table.end_row();
  }
  table.print();

  std::printf(
      "\nnote the switch at 30 min: P_peak drops from the provisioned value\n"
      "to the observed training peak, and P_L/P_H follow at 84%%/93%%.\n");
  return 0;
}
