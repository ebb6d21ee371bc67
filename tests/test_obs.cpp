// Observability layer (obs/registry.hpp, obs/spans.hpp): registration
// semantics, exporters, span gating, and the registry-as-source-of-truth
// contract — trace CSV columns and manager reports are views over the
// same counters, and deterministic series stay bit-identical across
// worker counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "hw/node_spec.hpp"
#include "obs/registry.hpp"
#include "obs/spans.hpp"
#include "power/manager.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"

namespace pcap {
namespace {

TEST(ObsRegistry, CounterGaugeBasics) {
  obs::Registry reg;
  const obs::CounterHandle c = reg.counter("pcap_test_total", "help");
  const obs::GaugeHandle g = reg.gauge("pcap_test_value", "help");
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(reg.value(c), 0u);
  reg.add(c);
  reg.add(c, 4);
  EXPECT_EQ(reg.value(c), 5u);
  reg.set_total(c, 3);
  EXPECT_EQ(reg.value(c), 3u);
  reg.set(g, 2.5);
  EXPECT_DOUBLE_EQ(reg.value(g), 2.5);
}

TEST(ObsRegistry, DefaultHandleIsInvalid) {
  const obs::CounterHandle c;
  EXPECT_FALSE(c.valid());
}

TEST(ObsRegistry, RegistrationIsIdempotentPerKey) {
  obs::Registry reg;
  const obs::CounterHandle a = reg.counter("pcap_x_total", "help");
  const obs::CounterHandle b = reg.counter("pcap_x_total", "ignored");
  EXPECT_EQ(a.index, b.index);
  // Distinct labels are a distinct series under the same family.
  const obs::CounterHandle c =
      reg.counter("pcap_x_total", "help", "kind=\"other\"");
  EXPECT_NE(a.index, c.index);
  EXPECT_EQ(reg.counter_count(), 2u);
}

TEST(ObsRegistry, FreezeRejectsNewSeriesButAllowsRebinding) {
  obs::Registry reg;
  const obs::CounterHandle a = reg.counter("pcap_x_total", "help");
  reg.freeze();
  // Existing key: fine (a replacement manager re-binding).
  const obs::CounterHandle b = reg.counter("pcap_x_total", "help");
  EXPECT_EQ(a.index, b.index);
  // New key: loud error, not a hot-path allocation.
  EXPECT_THROW(reg.counter("pcap_y_total", "help"), std::logic_error);
  EXPECT_THROW(reg.gauge("pcap_y", "help"), std::logic_error);
  EXPECT_THROW(reg.histogram("pcap_y_seconds", "help", {1.0}),
               std::logic_error);
}

TEST(ObsRegistry, HistogramBucketsAreInclusiveUpperBounds) {
  obs::Registry reg;
  const obs::HistogramHandle h =
      reg.histogram("pcap_h", "help", {1.0, 2.0, 4.0});
  reg.observe(h, 0.5);   // le=1
  reg.observe(h, 1.0);   // le=1 (inclusive)
  reg.observe(h, 3.0);   // le=4
  reg.observe(h, 100.0); // +Inf
  EXPECT_EQ(reg.count(h), 4u);
  EXPECT_DOUBLE_EQ(reg.sum(h), 104.5);
  const std::string prom = reg.prometheus_text();
  EXPECT_NE(prom.find("pcap_h_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("pcap_h_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("pcap_h_bucket{le=\"4\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("pcap_h_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(prom.find("pcap_h_count 4"), std::string::npos);
}

TEST(ObsRegistry, HistogramValidation) {
  obs::Registry reg;
  EXPECT_THROW(reg.histogram("pcap_h", "help", {}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("pcap_h", "help", {2.0, 1.0}),
               std::invalid_argument);
}

TEST(ObsRegistry, FindAndCounterValue) {
  obs::Registry reg;
  const obs::CounterHandle c =
      reg.counter("pcap_x_total", "help", "state=\"green\"");
  reg.add(c, 7);
  EXPECT_FALSE(reg.find_counter("pcap_x_total").has_value());
  const auto found = reg.find_counter("pcap_x_total{state=\"green\"}");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(reg.value(*found), 7u);
  EXPECT_EQ(reg.counter_value("pcap_x_total{state=\"green\"}"), 7u);
  EXPECT_FALSE(reg.counter_value("pcap_missing_total").has_value());
}

TEST(ObsRegistry, PrometheusTextShape) {
  obs::Registry reg;
  reg.add(reg.counter("pcap_c_total", "counter help", "k=\"v\""), 2);
  reg.set(reg.gauge("pcap_g", "gauge help"), 1.5);
  const std::string prom = reg.prometheus_text();
  EXPECT_NE(prom.find("# HELP pcap_c_total counter help"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE pcap_c_total counter"), std::string::npos);
  EXPECT_NE(prom.find("pcap_c_total{k=\"v\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE pcap_g gauge"), std::string::npos);
  EXPECT_NE(prom.find("pcap_g 1.5"), std::string::npos);
}

TEST(ObsRegistry, JsonSnapshotShape) {
  obs::Registry reg;
  reg.add(reg.counter("pcap_c_total", "h"), 3);
  reg.set(reg.gauge("pcap_g", "h"), 0.5);
  reg.observe(reg.histogram("pcap_h", "h", {1.0}), 0.25);
  const std::string json = reg.json_snapshot();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"pcap_c_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(ObsSpans, UnboundScopeIsInert) {
  const obs::SpanTimer t;
  EXPECT_FALSE(t.bound());
  { const obs::SpanTimer::Scope s = t.start(); }  // must not crash
}

TEST(ObsSpans, BoundScopeRecordsOneObservation) {
  obs::Registry reg;
  obs::SpanTimer t;
  t.bind(reg, "pcap_cycle_phase_seconds", "help", "phase=\"test\"");
  { const obs::SpanTimer::Scope s = t.start(); }
  EXPECT_EQ(reg.count(t.handle()), 1u);
  EXPECT_GE(reg.sum(t.handle()), 0.0);
}

TEST(ObsSpans, TimingGateSkipsClockReads) {
  obs::Registry reg;
  obs::SpanTimer t;
  t.bind(reg, "pcap_cycle_phase_seconds", "help", "phase=\"test\"");
  reg.set_timing_enabled(false);
  { const obs::SpanTimer::Scope s = t.start(); }
  EXPECT_EQ(reg.count(t.handle()), 0u);
  reg.set_timing_enabled(true);
  { const obs::SpanTimer::Scope s = t.start(); }
  EXPECT_EQ(reg.count(t.handle()), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: a capped cluster publishes into its registry, and the
// registry agrees with every older view of the same quantities.

cluster::ClusterConfig capped_config(std::size_t worker_threads,
                                     bool obs_timing = true) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 96;
  cfg.spec = hw::tianhe1a_node_spec();
  cfg.tick = Seconds{1.0};
  cfg.control_period = Seconds{4.0};
  cfg.seed = 20260807;
  cfg.worker_threads = worker_threads;
  cfg.parallel_node_threshold = 1;
  cfg.parallel_grain = 16;
  cfg.obs_timing = obs_timing;
  return cfg;
}

void install_capping_manager(cluster::Cluster& cl) {
  power::CappingManagerParams p;
  p.thresholds.provision = cl.theoretical_peak() * 0.8;
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.cycle_period = cl.config().control_period;
  p.collector.parallel_threshold = 16;
  p.collector.parallel_grain = 16;
  p.collector.transport.loss_rate = 0.05;
  auto mgr = std::make_unique<power::ZoneTreeManager>(
      power::ZoneTreeParams{}, p, [] { return power::make_policy("mpc"); },
      common::Rng(cl.config().seed ^ 0x9d2c5680u));
  mgr->set_candidate_set(cl.controllable_nodes());
  cl.set_manager(std::move(mgr));
}

TEST(ObsCluster, RegistryAgreesWithTraceRecorderAndReports) {
  cluster::Cluster cl(capped_config(1));
  install_capping_manager(cl);
  cl.start_recording();
  cl.run(Seconds{400.0});

  const obs::Registry& reg = cl.metrics();
  EXPECT_TRUE(reg.frozen());

  // Engine + cluster series.
  EXPECT_EQ(reg.counter_value("pcap_cluster_ticks_total"), 400u);
  const auto g = [&](const std::string& key) {
    const auto h = reg.find_gauge(key);
    return h ? reg.value(*h) : -1.0;
  };
  EXPECT_DOUBLE_EQ(g("pcap_cluster_power_watts"), cl.last_power().value());
  EXPECT_GT(reg.counter_value("pcap_sim_events_total").value_or(0), 0u);

  // State-cycle counters sum to the number of control cycles.
  const std::uint64_t cycles =
      reg.counter_value("pcap_manager_cycles_total{state=\"green\"}")
          .value_or(0) +
      reg.counter_value("pcap_manager_cycles_total{state=\"yellow\"}")
          .value_or(0) +
      reg.counter_value("pcap_manager_cycles_total{state=\"red\"}")
          .value_or(0);
  EXPECT_EQ(cycles, 100u);  // 400 s / 4 s control period

  // The CSV columns are a view over the same counters: summing them must
  // reproduce the registry totals exactly.
  std::uint64_t csv_stale = 0, csv_fallback = 0, csv_skipped = 0;
  std::uint64_t csv_retries = 0, csv_divergences = 0, csv_heals = 0;
  std::uint64_t csv_transitions = 0, csv_targets = 0;
  for (const metrics::CyclePoint& p : cl.recorder().points()) {
    csv_stale += p.stale_nodes;
    csv_fallback += p.fallback_nodes;
    csv_skipped += p.skipped_targets;
    csv_retries += p.retries;
    csv_divergences += p.divergences;
    csv_heals += p.heals;
    csv_transitions += p.transitions;
    csv_targets += p.targets;
  }
  const auto c = [&](const std::string& key) {
    return reg.counter_value(key).value_or(0);
  };
  EXPECT_EQ(c("pcap_manager_stale_node_cycles_total"), csv_stale);
  EXPECT_EQ(c("pcap_manager_fallback_node_cycles_total"), csv_fallback);
  EXPECT_EQ(c("pcap_manager_skipped_targets_total"), csv_skipped);
  EXPECT_EQ(c("pcap_manager_retries_total"), csv_retries);
  EXPECT_EQ(c("pcap_manager_divergences_total"), csv_divergences);
  EXPECT_EQ(c("pcap_manager_heals_total"), csv_heals);
  EXPECT_EQ(c("pcap_manager_transitions_total"), csv_transitions);
  EXPECT_EQ(c("pcap_manager_targets_total"), csv_targets);

  // Mirrored lifetime totals match the last report's ground truth.
  EXPECT_EQ(c("pcap_telemetry_samples_lost_total"),
            cl.last_report().samples_lost);
  EXPECT_EQ(c("pcap_actuation_commands_clamped_total"),
            cl.last_report().commands_clamped);

  // Span histograms recorded something (timing is on in this run).
  const auto tick_span =
      reg.find_histogram("pcap_cycle_phase_seconds{phase=\"tick\"}");
  ASSERT_TRUE(tick_span.has_value());
  EXPECT_EQ(reg.count(*tick_span), 400u);

  // Both exporters produce non-trivial output containing the span family.
  const std::string prom = reg.prometheus_text();
  EXPECT_NE(prom.find("pcap_cycle_phase_seconds_bucket"), std::string::npos);
  EXPECT_NE(prom.find("pcap_manager_cycles_total{state=\"green\"}"),
            std::string::npos);
  EXPECT_NE(reg.json_snapshot().find("pcap_cluster_power_watts"),
            std::string::npos);
}

TEST(ObsCluster, DeterministicSeriesBitIdenticalAcrossWorkerCounts) {
  // Wall-clock spans differ run to run; every deterministic series must
  // not. Collect (key, value) for all counters/gauges except the span
  // family and compare 1-thread vs 4-thread runs.
  const auto deterministic_dump = [](std::size_t workers) {
    cluster::Cluster cl(capped_config(workers));
    install_capping_manager(cl);
    cl.start_recording();
    cl.run(Seconds{400.0});
    std::string prom = cl.metrics().prometheus_text();
    // Strip the non-deterministic span family lines.
    std::string out;
    std::size_t pos = 0;
    while (pos < prom.size()) {
      std::size_t eol = prom.find('\n', pos);
      if (eol == std::string::npos) eol = prom.size();
      const std::string line = prom.substr(pos, eol - pos);
      if (line.find("pcap_cycle_phase_seconds") == std::string::npos) {
        out += line;
        out += '\n';
      }
      pos = eol + 1;
    }
    return out;
  };
  EXPECT_EQ(deterministic_dump(1), deterministic_dump(4));
}

TEST(ObsCluster, TimingGateDisablesSpansButKeepsCounters) {
  cluster::Cluster cl(capped_config(1, /*obs_timing=*/false));
  install_capping_manager(cl);
  cl.run(Seconds{100.0});
  const obs::Registry& reg = cl.metrics();
  const auto tick_span =
      reg.find_histogram("pcap_cycle_phase_seconds{phase=\"tick\"}");
  ASSERT_TRUE(tick_span.has_value());
  EXPECT_EQ(reg.count(*tick_span), 0u);
  EXPECT_EQ(reg.counter_value("pcap_cluster_ticks_total"), 100u);
}

TEST(ObsCluster, ZoneTreePublishesEveryCyclePhaseSpan) {
  cluster::Cluster cl(capped_config(1));
  power::CappingManagerParams p;
  p.thresholds.provision = cl.theoretical_peak() * 0.8;
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.cycle_period = cl.config().control_period;
  power::ZoneTreeParams zp;
  zp.zone_count = 2;
  auto tree = std::make_unique<power::ZoneTreeManager>(
      zp, p, [] { return power::make_policy("mpc"); },
      common::Rng(cl.config().seed ^ 0x9d2c5680u));
  tree->set_candidate_set(cl.controllable_nodes());
  cl.set_manager(std::move(tree));
  cl.run(Seconds{400.0});
  const obs::Registry& reg = cl.metrics();
  for (const char* phase : {"collect", "context", "policy", "actuate"}) {
    const auto span = reg.find_histogram(
        std::string("pcap_cycle_phase_seconds{phase=\"") + phase + "\"}");
    ASSERT_TRUE(span.has_value()) << phase;
    EXPECT_GT(reg.count(*span), 0u) << phase;
  }
}

TEST(ObsCluster, SimulationSeriesTrackEngineState) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.seed = 3;
  cluster::Cluster cl(cfg);
  cl.run(Seconds{50.0});
  EXPECT_EQ(cl.metrics().counter_value("pcap_sim_events_total"), 50u);
}

}  // namespace
}  // namespace pcap
