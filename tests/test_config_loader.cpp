#include "cluster/config_loader.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <initializer_list>
#include <map>
#include <numeric>
#include <vector>

#include "cluster/scenario.hpp"

namespace pcap::cluster {
namespace {

ExperimentConfig load(const std::string& text) {
  return apply_config(paper_scenario(), common::Config::parse(text));
}

std::filesystem::path example_configs() {
  return std::filesystem::path(PCAP_SOURCE_DIR) / "examples" / "configs";
}

// Every scenario builder, by name.
std::map<std::string, ExperimentConfig> builders() {
  return {
      {"paper", paper_scenario()},
      {"small", small_scenario()},
      {"heterogeneous", heterogeneous_scenario()},
      {"faulty_telemetry", faulty_telemetry_scenario()},
      {"lossy_actuation", lossy_actuation_scenario()},
      {"controller_outage", controller_outage_scenario()},
  };
}

TEST(ConfigLoader, EmptyConfigKeepsDefaults) {
  const ExperimentConfig base = paper_scenario();
  const ExperimentConfig cfg = load("");
  EXPECT_EQ(cfg.cluster.num_nodes, base.cluster.num_nodes);
  EXPECT_EQ(cfg.manager, base.manager);
  EXPECT_EQ(cfg.training.value(), base.training.value());
  EXPECT_EQ(cfg.capping.steady_green_cycles,
            base.capping.steady_green_cycles);
}

// Every key falls back to the base's value, so applying a config twice (a
// file, then command-line overrides) cannot reset what the first set.
TEST(ConfigLoader, EmptyConfigLeavesSmallScenarioUnchanged) {
  for (const auto& [name, builder] : builders()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(config_text(apply_config(builder, common::Config{})),
              config_text(builder));
  }
}

TEST(ConfigLoader, EveryExampleConfigLoads) {
  std::size_t loaded = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(example_configs())) {
    if (entry.path().extension() != ".ini") continue;
    SCOPED_TRACE(entry.path().string());
    EXPECT_NO_THROW(experiment_from_file(entry.path().string()));
    ++loaded;
  }
  EXPECT_GE(loaded, 7u);
}

// config_text reads back to itself from any builder or example INI: every
// key's value survives printing and re-loading on the paper base.
TEST(ConfigLoader, ConfigTextRoundTrips) {
  std::map<std::string, ExperimentConfig> configs = builders();
  for (const auto& entry :
       std::filesystem::directory_iterator(example_configs())) {
    if (entry.path().extension() != ".ini") continue;
    configs[entry.path().filename().string()] =
        experiment_from_file(entry.path().string());
  }
  for (const auto& [name, c] : configs) {
    SCOPED_TRACE(name);
    const std::string text = config_text(c);
    EXPECT_EQ(config_text(apply_config(paper_scenario(),
                                       common::Config::parse(text))),
              text);
  }
}

TEST(ConfigLoader, QuickstartConfigIsSmallScenario) {
  EXPECT_EQ(config_text(experiment_from_file(
                (example_configs() / "quickstart.ini").string())),
            config_text(small_scenario(7)));
}

// The fault INIs equal their builders on every key but these five: the
// INIs run 64 class-D nodes for 1 h calibration, 1 h training and 3 h
// measured, the builders 16 class-C nodes on small_scenario's phases.
TEST(ConfigLoader, FaultConfigsCarryTheirBuildersKnobs) {
  const common::Config ini_scale = common::Config::parse(
      "cluster.nodes = 64\n"
      "cluster.npb_class = D\n"
      "experiment.training_h = 1\n"
      "experiment.measured_h = 3\n"
      "experiment.calibration_h = 1\n");
  const std::map<std::string, ExperimentConfig> fault_builders = {
      {"faulty_telemetry.ini", faulty_telemetry_scenario()},
      {"lossy_actuation.ini", lossy_actuation_scenario()},
      {"controller_outage.ini", controller_outage_scenario()},
  };
  for (const auto& [file, builder] : fault_builders) {
    SCOPED_TRACE(file);
    EXPECT_EQ(config_text(experiment_from_file(
                  (example_configs() / file).string())),
              config_text(apply_config(builder, ini_scale)));
  }
}

// Every manager name loads exactly as written and builds a manager.
TEST(ConfigLoader, EveryManagerNameLoadsAndBuilds) {
  for (const std::string& name : manager_names()) {
    SCOPED_TRACE(name);
    common::Config keys;
    keys.set("manager.policy", name);
    const ExperimentConfig cfg = apply_config(small_scenario(), keys);
    EXPECT_EQ(cfg.manager, name);
    std::vector<hw::NodeId> candidates(cfg.cluster.num_nodes);
    std::iota(candidates.begin(), candidates.end(), hw::NodeId{0});
    EXPECT_NE(make_manager(cfg, cfg.cluster, Watts{3000.0}, candidates),
              nullptr);
  }
}

// An unknown manager dies at the key, before any simulation runs.
TEST(ConfigLoader, UnknownPolicyThrows) {
  EXPECT_THROW(load("[manager]\npolicy = bogus\n"), std::runtime_error);
  EXPECT_THROW(load("[manager]\npolicy = MPC\n"), std::runtime_error);
}

TEST(ConfigLoader, ClusterSection) {
  const ExperimentConfig cfg = load(
      "[cluster]\n"
      "nodes = 48\n"
      "seed = 99\n"
      "tick_s = 0.5\n"
      "control_period_s = 2.0\n"
      "npb_class = C\n"
      "max_procs_per_node = 6\n"
      "privileged_fraction = 0.15\n");
  EXPECT_EQ(cfg.cluster.num_nodes, 48u);
  EXPECT_EQ(cfg.cluster.seed, 99u);
  EXPECT_DOUBLE_EQ(cfg.cluster.tick.value(), 0.5);
  EXPECT_DOUBLE_EQ(cfg.cluster.control_period.value(), 2.0);
  EXPECT_EQ(cfg.cluster.npb_class, workload::NpbClass::kC);
  EXPECT_EQ(cfg.cluster.scheduler.max_procs_per_node, 6);
  EXPECT_DOUBLE_EQ(cfg.cluster.privileged_job_fraction, 0.15);
}

TEST(ConfigLoader, ManagerSection) {
  const ExperimentConfig cfg = load(
      "[manager]\n"
      "policy = hri-c\n"
      "candidate_count = 32\n"
      "dynamic_candidates = true\n"
      "tg_cycles = 20\n"
      "red_margin = 0.05\n"
      "yellow_margin = 0.12\n"
      "thresholds_from_provision = true\n");
  EXPECT_EQ(cfg.manager, "hri-c");
  EXPECT_EQ(cfg.candidate_count, 32);
  EXPECT_TRUE(cfg.dynamic_candidates);
  EXPECT_EQ(cfg.capping.steady_green_cycles, 20);
  EXPECT_DOUBLE_EQ(cfg.red_margin, 0.05);
  EXPECT_DOUBLE_EQ(cfg.yellow_margin, 0.12);
  EXPECT_TRUE(cfg.thresholds_from_provision);
}

TEST(ConfigLoader, ExperimentSection) {
  const ExperimentConfig cfg = load(
      "[experiment]\n"
      "training_h = 1.5\n"
      "measured_h = 3\n"
      "provision_w = 30000\n");
  EXPECT_DOUBLE_EQ(cfg.training.value(), 1.5 * 3600.0);
  EXPECT_DOUBLE_EQ(cfg.measured.value(), 3 * 3600.0);
  EXPECT_DOUBLE_EQ(cfg.provision.value(), 30000.0);
}

TEST(ConfigLoader, TelemetrySection) {
  const ExperimentConfig cfg = load(
      "[telemetry]\n"
      "loss_rate = 0.2\n"
      "delay_cycles = 3\n");
  EXPECT_DOUBLE_EQ(cfg.transport.loss_rate, 0.2);
  EXPECT_EQ(cfg.transport.delay_cycles, 3);
}

TEST(ConfigLoader, ActuationSection) {
  const ExperimentConfig cfg = load(
      "[actuation]\n"
      "loss_rate = 0.1\n"
      "delay_cycles = 2\n"
      "failure_rate = 0.02\n"
      "partial_rate = 0.05\n"
      "reboot_rate = 0.001\n"
      "reboot_duration_cycles = 25\n"
      "max_retries = 4\n"
      "retry_backoff_cycles = 3\n"
      "retry_backoff_cap_cycles = 12\n");
  EXPECT_DOUBLE_EQ(cfg.actuation.command_loss_rate, 0.1);
  EXPECT_EQ(cfg.actuation.delivery_delay_cycles, 2);
  EXPECT_DOUBLE_EQ(cfg.actuation.transition_failure_rate, 0.02);
  EXPECT_DOUBLE_EQ(cfg.actuation.partial_transition_rate, 0.05);
  EXPECT_DOUBLE_EQ(cfg.actuation.reboot_rate, 0.001);
  EXPECT_EQ(cfg.actuation.reboot_duration_cycles, 25);
  EXPECT_EQ(cfg.reconciliation.max_retries, 4);
  EXPECT_EQ(cfg.reconciliation.retry_backoff_base_cycles, 3);
  EXPECT_EQ(cfg.reconciliation.retry_backoff_cap_cycles, 12);
}

// Fault-model knobs are validated at the key level: a stray NaN or
// negative would otherwise sail through into the params structs ([0,1]
// range checks pass NaN through every comparison).
TEST(ConfigLoader, NonFiniteFaultRateThrows) {
  EXPECT_THROW(load("[telemetry]\nloss_rate = nan\n"), std::runtime_error);
  EXPECT_THROW(load("[telemetry]\ncorruption_rate = inf\n"),
               std::runtime_error);
  EXPECT_THROW(load("[actuation]\nloss_rate = nan\n"), std::runtime_error);
  EXPECT_THROW(load("[actuation]\nreboot_rate = 1e999\n"),
               std::runtime_error);
}

TEST(ConfigLoader, NegativeFaultKnobThrows) {
  EXPECT_THROW(load("[telemetry]\nloss_rate = -0.1\n"), std::runtime_error);
  EXPECT_THROW(load("[telemetry]\ndelay_cycles = -1\n"), std::runtime_error);
  EXPECT_THROW(load("[telemetry]\nstale_margin = -0.5\n"),
               std::runtime_error);
  EXPECT_THROW(load("[actuation]\nfailure_rate = -0.1\n"),
               std::runtime_error);
  EXPECT_THROW(load("[actuation]\ndelay_cycles = -2\n"), std::runtime_error);
  EXPECT_THROW(load("[actuation]\nmax_retries = -1\n"), std::runtime_error);
}

// Sizes, periods, T_g and gains must be positive, phase lengths, margins
// and utilization knobs non-negative: -1 nodes would read as SIZE_MAX, a
// zero tick never advances time, and a NaN margin passes the learner's
// `<` checks.
TEST(ConfigLoader, SizesPeriodsAndPhaseLengthsAreRangeChecked) {
  const auto rejects = [](const std::string& section, const std::string& key,
                          std::initializer_list<const char*> values) {
    for (const char* v : values) {
      EXPECT_THROW(load("[" + section + "]\n" + key + " = " + v + "\n"),
                   std::runtime_error)
          << section << "." << key << " = " << v;
    }
  };
  rejects("cluster", "nodes", {"-1", "0", "nan"});
  rejects("cluster", "max_procs_per_node", {"-1", "0", "nan"});
  rejects("cluster", "tick_s", {"-1", "0", "nan", "inf"});
  rejects("cluster", "control_period_s", {"-1", "0", "nan", "inf"});
  for (const char* key : {"privileged_fraction", "idle_utilization",
                          "utilization_noise", "ramp_tau_s"}) {
    rejects("cluster", key, {"-0.1", "nan"});
  }
  rejects("manager", "tg_cycles", {"-1", "0"});
  rejects("manager", "adjust_period_cycles", {"-1", "0"});
  rejects("manager", "feedback_gain", {"0", "nan"});
  rejects("manager", "red_margin", {"-0.1", "nan"});
  rejects("manager", "yellow_margin", {"-0.1", "nan"});
  rejects("experiment", "provision_fraction", {"0", "nan", "inf"});
  rejects("experiment", "provision_w", {"-1", "nan"});
  for (const char* key : {"training_h", "measured_h", "calibration_h"}) {
    rejects("experiment", key, {"-1", "nan", "inf"});
    EXPECT_EQ(load(std::string("[experiment]\n") + key + " = 0\n")
                  .cluster.num_nodes,
              paper_scenario().cluster.num_nodes)
        << key << " = 0 loads";
  }
  const ExperimentConfig c = load(
      "[cluster]\nnodes = 1\nmax_procs_per_node = 1\ntick_s = 0.5\n"
      "control_period_s = 2\n");
  EXPECT_EQ(c.cluster.num_nodes, 1u);
  EXPECT_EQ(c.cluster.scheduler.max_procs_per_node, 1);
  EXPECT_EQ(c.cluster.tick, Seconds{0.5});
  EXPECT_EQ(c.cluster.control_period, Seconds{2.0});
}

TEST(ConfigLoader, OutOfRangeRateStillCaughtByParamsValidate) {
  // checked_double only guards finiteness/sign; the params' own validate()
  // must still reject rates above 1.
  EXPECT_THROW(load("[actuation]\nloss_rate = 1.5\n"), std::invalid_argument);
}

TEST(ConfigLoader, UnknownKeyThrows) {
  EXPECT_THROW(load("[cluster]\nnoodles = 128\n"), std::runtime_error);
  EXPECT_THROW(load("typo = 1\n"), std::runtime_error);
}

TEST(ConfigLoader, BadNpbClassThrows) {
  EXPECT_THROW(load("[cluster]\nnpb_class = E\n"), std::runtime_error);
}

TEST(ConfigLoader, MissingFileThrows) {
  EXPECT_THROW(experiment_from_file("/no/such/file.ini"),
               std::runtime_error);
}

TEST(ConfigLoader, LoadedConfigRunsEndToEnd) {
  ExperimentConfig cfg = load(
      "[cluster]\n"
      "nodes = 12\n"
      "npb_class = C\n"
      "[manager]\n"
      "policy = mpc\n"
      "dynamic_candidates = true\n"
      "[experiment]\n"
      "training_h = 0.25\n"
      "measured_h = 0.5\n"
      "calibration_h = 0.25\n"
      "[telemetry]\n"
      "loss_rate = 0.1\n");
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.manager, "mpc");
  EXPECT_GT(r.p_max, Watts{0.0});
}

TEST(ConfigLoader, ZonesSection) {
  const ExperimentConfig cfg = load(
      "[zones]\n"
      "count = 8\n"
      "assignment = STRIDE\n"
      "redistribution = Proportional\n");
  EXPECT_EQ(cfg.zone_count, 8);
  EXPECT_EQ(cfg.zone_assignment, "stride");
  EXPECT_EQ(cfg.zone_redistribution, "proportional");
}

TEST(ConfigLoader, ZonesValidation) {
  EXPECT_THROW(load("[zones]\ncount = 0\n"), std::runtime_error);
  EXPECT_THROW(load("[zones]\nassignment = diagonal\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[zones]\nredistribution = greedy\n"),
               std::invalid_argument);
}

// zones.count goes through the checked_int guard like every other count:
// garbage and negatives die at the key, not deep inside the tree ctor.
TEST(ConfigLoader, ZoneCountRejectsGarbage) {
  EXPECT_THROW(load("[zones]\ncount = banana\n"), std::runtime_error);
  EXPECT_THROW(load("[zones]\ncount = -4\n"), std::runtime_error);
  EXPECT_THROW(load("[zones]\ncount = nan\n"), std::runtime_error);
}

TEST(ConfigLoader, ControlSection) {
  const ExperimentConfig cfg = load(
      "[control]\n"
      "outage_rate = 0.002\n"
      "outage_duration_cycles = 40\n"
      "zone_outage_rate = 0.003\n"
      "zone_outage_duration_cycles = 30\n"
      "delay_rate = 0.005\n"
      "delay_max_cycles = 3\n");
  EXPECT_DOUBLE_EQ(cfg.control.outage_rate, 0.002);
  EXPECT_EQ(cfg.control.outage_duration_cycles, 40);
  EXPECT_DOUBLE_EQ(cfg.control.zone_outage_rate, 0.003);
  EXPECT_EQ(cfg.control.zone_outage_duration_cycles, 30);
  EXPECT_DOUBLE_EQ(cfg.control.delay_rate, 0.005);
  EXPECT_EQ(cfg.control.delay_max_cycles, 3);
  EXPECT_TRUE(cfg.control.enabled());
}

TEST(ConfigLoader, WatchdogSection) {
  const ExperimentConfig cfg = load(
      "[watchdog]\n"
      "timeout_cycles = 8\n"
      "safe_level = 2\n");
  EXPECT_EQ(cfg.cluster.watchdog.timeout_cycles, 8);
  EXPECT_EQ(cfg.cluster.watchdog.safe_level, 2);
  EXPECT_TRUE(cfg.cluster.watchdog.enabled());
}

TEST(ConfigLoader, ControlAndWatchdogValidation) {
  EXPECT_THROW(load("[control]\noutage_rate = -0.1\n"), std::runtime_error);
  EXPECT_THROW(load("[control]\noutage_rate = nan\n"), std::runtime_error);
  EXPECT_THROW(load("[control]\noutage_rate = 1.5\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[control]\noutage_duration_cycles = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[control]\nblackout = 1\n"), std::runtime_error);
  EXPECT_THROW(load("[watchdog]\ntimeout_cycles = -1\n"),
               std::runtime_error);
  EXPECT_THROW(load("[watchdog]\ntimeout_cycles = banana\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace pcap::cluster
