// Figure 7 — Power capping results of different policies (full candidate
// set, 128 nodes), plus the §V.D headline claims:
//   * system performance loss ~2% for both MPC and HRI,
//   * P_max reduced ~10%,
//   * ΔP×T reduced by 73% (MPC) and 66% (HRI),
//   * CPLJ(MPC) > CPLJ(HRI) (paper: by 1.4%),
//   * the system never enters the red state while capping is active.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace pcap;
  using namespace pcap::bench;

  print_header(
      "Figure 7: power capping results of different policies "
      "(|A_candidate| = 128)",
      "~2% performance loss, ~10% lower P_max, dPxT -73% (MPC) / -66% "
      "(HRI), CPLJ(MPC) > CPLJ(HRI), never red");

  cluster::ExperimentConfig base = cluster::paper_scenario();
  base.provision = calibrate_provision(base);
  std::printf("calibrated provision P_Max = %.0f W (training %.0f h, "
              "measured %.0f h simulated)\n",
              base.provision.value(), base.training.value() / 3600.0,
              base.measured.value() / 3600.0);

  std::vector<cluster::ExperimentConfig> configs;
  for (const char* policy :
       {"none", "mpc", "hri", "mpc-c", "hri-c", "pi-c", "pred-c"}) {
    configs.push_back(base);
    configs.back().manager = policy;
  }
  const std::vector<cluster::AveragedResult> results =
      cluster::average_over_seeds(configs, {42, 1234, 777});
  const cluster::AveragedResult& baseline = results[0];
  const cluster::AveragedResult& mpc = results[1];
  const cluster::AveragedResult& hri = results[2];
  const cluster::AveragedResult& mpc_c = results[3];
  const cluster::AveragedResult& hri_c = results[4];
  const cluster::AveragedResult& pi_c = results[5];
  const cluster::AveragedResult& pred_c = results[6];

  metrics::Table table({"policy", "perf", "CPLJ", "P_max (W)", "P_max vs none",
                        "dPxT", "dPxT reduction", "yellow (s)", "red (s)"});
  for (const cluster::AveragedResult& r : results) {
    const double pmax_delta = r.p_max_w / baseline.p_max_w - 1.0;
    const double dpxt_red =
        baseline.delta_pxt > 0.0 ? 1.0 - r.delta_pxt / baseline.delta_pxt
                                 : 0.0;
    table.cell(r.manager)
        .cell(r.performance, 4)
        .cell_percent(r.lossless_fraction)
        .cell(r.p_max_w, 0)
        .cell_percent(pmax_delta)
        .cell(r.delta_pxt, 5)
        .cell_percent(dpxt_red)
        .cell(r.yellow_s, 0)
        .cell(r.red_s, 0);
    table.end_row();
  }
  table.print();

  std::printf("\nheadline checks vs the paper:\n");
  std::printf("  performance loss: MPC %.1f%%, HRI %.1f%% (paper ~2%%)\n",
              (1.0 - mpc.performance) * 100.0, (1.0 - hri.performance) * 100.0);
  std::printf("  P_max reduction: MPC %.1f%%, HRI %.1f%% (paper ~10%%)\n",
              (1.0 - mpc.p_max_w / baseline.p_max_w) * 100.0,
              (1.0 - hri.p_max_w / baseline.p_max_w) * 100.0);
  std::printf("  dPxT reduction: MPC %.0f%%, HRI %.0f%% (paper 73%% / 66%%)\n",
              (1.0 - mpc.delta_pxt / baseline.delta_pxt) * 100.0,
              (1.0 - hri.delta_pxt / baseline.delta_pxt) * 100.0);
  std::printf("  CPLJ: MPC %.1f%% vs HRI %.1f%% (paper: MPC higher by 1.4%%)"
              " -> %s\n",
              mpc.lossless_fraction * 100.0, hri.lossless_fraction * 100.0,
              mpc.lossless_fraction > hri.lossless_fraction ? "ordering holds"
                                                            : "MISMATCH");
  std::printf("  dPxT ordering MPC better than HRI -> %s\n",
              mpc.delta_pxt <= hri.delta_pxt ? "holds" : "MISMATCH");
  std::printf("  red state with capping: MPC %.1f s, HRI %.1f s per 12 h "
              "(paper: never)\n",
              mpc.red_s, hri.red_s);

  // Predictive capping (ROADMAP): the forecast-driven policies must beat
  // the best reactive collections on overspend and red excursions while
  // giving up no more than ~2% of Performance(cap)/CPLJ.
  std::printf("\npredictive capping (PI-C / PRED-C vs reactive "
              "collections):\n");
  const cluster::AveragedResult& best_reactive =
      mpc_c.delta_pxt <= hri_c.delta_pxt ? mpc_c : hri_c;
  const auto pred_line = [&](const cluster::AveragedResult& r) {
    std::printf("  %-7s dPxT %.5f (%+.0f%% vs %s), red %.1f (vs %.1f), "
                "perf %.4f (%+.2f%%), CPLJ %.1f%% (%+.2f pp), "
                "elevations %.0f, overshoots %.0f, misses %.0f\n",
                r.manager.c_str(), r.delta_pxt,
                best_reactive.delta_pxt > 0.0
                    ? (r.delta_pxt / best_reactive.delta_pxt - 1.0) * 100.0
                    : 0.0,
                best_reactive.manager.c_str(), r.red_s, best_reactive.red_s,
                r.performance,
                (r.performance / best_reactive.performance - 1.0) * 100.0,
                r.lossless_fraction * 100.0,
                (r.lossless_fraction - best_reactive.lossless_fraction) *
                    100.0,
                r.predictive_elevations, r.predictor_overshoots,
                r.predictor_misses);
  };
  pred_line(pi_c);
  pred_line(pred_c);
  const auto holds = [&](const cluster::AveragedResult& r) {
    return r.delta_pxt <= best_reactive.delta_pxt &&
           r.red_s <= best_reactive.red_s &&
           r.performance >= best_reactive.performance * 0.98 &&
           r.lossless_fraction >= best_reactive.lossless_fraction - 0.02;
  };
  // The claim is "a forecast-driven policy acts before the threshold is
  // crossed", not "every tuning of one does": it holds when at least one
  // of PI-C/PRED-C dominates the best reactive collection.
  std::printf("  acts-before-threshold (lower dPxT, no more red, perf/CPLJ "
              "within 2%%): PI-C %s, PRED-C %s -> claim %s\n",
              holds(pi_c) ? "holds" : "short", holds(pred_c) ? "holds" : "short",
              holds(pi_c) || holds(pred_c) ? "holds" : "MISMATCH");
  return 0;
}
