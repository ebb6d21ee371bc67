#include "cluster/scenario.hpp"

#include "hw/node_spec.hpp"

namespace pcap::cluster {

ExperimentConfig paper_scenario(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.cluster.num_nodes = 128;
  cfg.cluster.spec = hw::tianhe1a_node_spec();
  cfg.cluster.tick = Seconds{1.0};
  cfg.cluster.seed = seed;
  cfg.cluster.npb_class = workload::NpbClass::kD;
  // Wide rank placement (3 ranks per dual-socket board): class-D NPB is
  // memory-bandwidth bound, so launchers spread ranks across boards.
  cfg.cluster.scheduler.max_procs_per_node = 3;
  cfg.manager = "mpc";
  cfg.candidate_count = -1;  // all 128 nodes
  cfg.training = Seconds{4 * 3600.0};
  cfg.measured = Seconds{12 * 3600.0};
  cfg.capping.steady_green_cycles = 10;  // T_g = 10 (§V.C)
  return cfg;
}

ExperimentConfig small_scenario(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.cluster.num_nodes = 16;
  cfg.cluster.spec = hw::tianhe1a_node_spec();
  cfg.cluster.tick = Seconds{1.0};
  cfg.cluster.seed = seed;
  cfg.cluster.npb_class = workload::NpbClass::kC;
  cfg.cluster.scheduler.max_procs_per_node = 3;
  cfg.manager = "mpc";
  cfg.candidate_count = -1;
  cfg.calibration_duration = Seconds{1800.0};
  cfg.training = Seconds{1800.0};
  cfg.measured = Seconds{3600.0};
  cfg.capping.steady_green_cycles = 10;
  return cfg;
}

ExperimentConfig faulty_telemetry_scenario(std::uint64_t seed) {
  ExperimentConfig cfg = small_scenario(seed);
  cfg.provision_fraction = 0.95;  // capped peak must stay under provision
  cfg.transport.loss_rate = 0.02;
  cfg.transport.delay_cycles = 1;
  cfg.faults.agent_dropout_rate = 0.01;
  cfg.faults.agent_recovery_rate = 0.2;
  cfg.faults.crash_rate = 1e-4;
  cfg.faults.crash_duration_cycles = 60;
  cfg.faults.corruption_rate = 0.005;
  cfg.max_sample_age_cycles = 5;
  cfg.stale_power_margin = 0.10;
  return cfg;
}

ExperimentConfig lossy_actuation_scenario(std::uint64_t seed) {
  ExperimentConfig cfg = small_scenario(seed);
  cfg.provision_fraction = 0.95;  // capped peak must stay under provision
  cfg.actuation.command_loss_rate = 0.10;
  cfg.actuation.delivery_delay_cycles = 2;
  cfg.actuation.transition_failure_rate = 0.02;
  cfg.actuation.partial_transition_rate = 0.05;
  cfg.actuation.reboot_rate = 2e-4;
  cfg.actuation.reboot_duration_cycles = 30;
  // First retry two cycles after issue: above the ack latency (2-cycle
  // delivery delay + 1 collection cycle) doubled backoff reaches quickly,
  // and the 5-retry budget spans a full reboot window before abandoning.
  cfg.reconciliation.max_retries = 5;
  cfg.reconciliation.retry_backoff_base_cycles = 2;
  cfg.reconciliation.retry_backoff_cap_cycles = 16;
  return cfg;
}

ExperimentConfig controller_outage_scenario(std::uint64_t seed) {
  ExperimentConfig cfg = small_scenario(seed);
  cfg.provision_fraction = 0.95;  // capped peak must stay under provision
  cfg.zone_count = 2;
  cfg.control.outage_rate = 2e-3;
  cfg.control.outage_duration_cycles = 40;
  cfg.control.zone_outage_rate = 2e-3;
  cfg.control.zone_outage_duration_cycles = 30;
  cfg.control.delay_rate = 5e-3;
  cfg.control.delay_max_cycles = 3;
  // Failsafe well inside an outage window: 8 silent cycles trip the node
  // to level 2 (a deep but not floor step on the 10-level ladder), so a
  // 40-cycle blackout spends most of its span capped.
  cfg.cluster.watchdog.timeout_cycles = 8;
  cfg.cluster.watchdog.safe_level = 2;
  return cfg;
}

ExperimentConfig heterogeneous_scenario(std::uint64_t seed) {
  ExperimentConfig cfg = small_scenario(seed);
  cfg.cluster.node_specs.clear();
  for (int i = 0; i < 24; ++i) {
    cfg.cluster.node_specs.push_back(i % 3 == 2 ? hw::low_power_node_spec()
                                                : hw::tianhe1a_node_spec());
  }
  // node_specs wins; the count matches it so the config prints a
  // node count the loader accepts.
  cfg.cluster.num_nodes = cfg.cluster.node_specs.size();
  return cfg;
}

}  // namespace pcap::cluster
