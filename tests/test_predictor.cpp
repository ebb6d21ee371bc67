// Predictive capping (ROADMAP "Predictive capping"): the PowerPredictor
// models (Holt EWMA trend, windowed periodicity), the forecast accuracy
// scorer, the forecast-driven policies (PI-C, PRED-C), the control root's
// predictive elevation of green cycles, manager/tree integration with
// warm restart, and whole-cluster determinism of the predictive stack
// under a degraded management plane.
#include "power/predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "hw/node_spec.hpp"
#include "metrics/trace_recorder.hpp"
#include "power/capping.hpp"
#include "power/checkpoint.hpp"
#include "power/control_root.hpp"
#include "power/manager.hpp"
#include "power/policies_predictive.hpp"
#include "power/policies_state_based.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"
#include "workload/npb.hpp"

namespace pcap::power {
namespace {

/// CI sweeps PCAP_FAULT_SEED across a seed range; locally the fallback
/// keeps the test deterministic.
std::uint64_t fault_seed(std::uint64_t fallback) {
  const char* env = std::getenv("PCAP_FAULT_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

/// Same three-job context as test_policies.cpp:
///   job 0: nodes {0,1},   P = 600 (hot)
///   job 1: nodes {2},     P = 200 (cool)
///   job 2: nodes {3,4,5}, P = 450 (mid)
/// Saving per node is 20 W; P - P_L = `gap` (negative gap = green meter).
PolicyContext three_job_ctx(double gap) {
  PolicyContext ctx;
  ctx.p_low = Watts{1000.0};
  ctx.system_power = Watts{1000.0 + gap};
  const double node_power[] = {300.0, 300.0, 200.0, 150.0, 150.0, 150.0};
  for (int i = 0; i < 6; ++i) {
    NodeView nv;
    nv.id = static_cast<hw::NodeId>(i);
    nv.level = 9;
    nv.highest_level = 9;
    nv.busy = true;
    nv.power = Watts{node_power[i]};
    nv.power_one_level_down = nv.power - Watts{20.0};
    ctx.nodes.push_back(nv);
  }
  ctx.index_nodes();
  const std::vector<std::vector<hw::NodeId>> groups = {{0, 1}, {2}, {3, 4, 5}};
  for (std::size_t j = 0; j < groups.size(); ++j) {
    JobView jv;
    jv.id = j;
    jv.nodes = groups[j];
    for (const hw::NodeId id : groups[j]) {
      jv.power += ctx.node(id)->power;
      jv.saving_one_level += Watts{20.0};
    }
    ctx.jobs.push_back(jv);
  }
  return ctx;
}

// -- PredictionParams / make_predictor -----------------------------------

TEST(PredictionParams, DefaultsValidateEvenWhileDisabled) {
  PredictionParams p;
  EXPECT_FALSE(p.enabled);
  EXPECT_NO_THROW(p.validate());
}

TEST(PredictionParams, ValidationRejectsNonsense) {
  PredictionParams p;
  p.kind = "oracle";
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = PredictionParams{};
  p.horizon_cycles = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = PredictionParams{};
  p.ewma_alpha = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = PredictionParams{};
  p.ewma_beta = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = PredictionParams{};
  p.window_cycles = 4;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = PredictionParams{};
  p.refresh_cycles = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(PredictionParams, MakePredictorDispatchesOnKind) {
  PredictionParams p;
  EXPECT_EQ(make_predictor(p)->name(), "ewma");
  p.kind = "fft";
  EXPECT_EQ(make_predictor(p)->name(), "fft");
  p.kind = "tea-leaves";
  EXPECT_THROW(make_predictor(p), std::invalid_argument);
}

// -- EwmaTrendPredictor --------------------------------------------------

TEST(EwmaTrendPredictor, NoForecastUntilTwoSamples) {
  EwmaTrendPredictor p(0.25, 0.08);
  EXPECT_FALSE(p.forecast(1).has_value());
  p.observe(Watts{100.0});
  EXPECT_FALSE(p.forecast(1).has_value());
  p.observe(Watts{110.0});
  EXPECT_TRUE(p.forecast(1).has_value());
}

TEST(EwmaTrendPredictor, HoltInitExtrapolatesALinearRampExactly) {
  // After two samples the Holt state is level = x1, trend = x1 - x0, so
  // forecast(h) = x1 + h * (x1 - x0) with no smoothing lag.
  EwmaTrendPredictor p(0.25, 0.08);
  p.observe(Watts{100.0});
  p.observe(Watts{110.0});
  EXPECT_DOUBLE_EQ(p.forecast(1)->value(), 120.0);
  EXPECT_DOUBLE_EQ(p.forecast(5)->value(), 160.0);
}

TEST(EwmaTrendPredictor, TracksAPerfectRampAtAnySmoothing) {
  // x_t = 1000 + 40 t is reproduced exactly by level = x_t, trend = 40:
  // the update is a fixed point on noiseless ramps.
  EwmaTrendPredictor p(0.25, 0.08);
  for (int t = 0; t < 50; ++t) p.observe(Watts{1000.0 + 40.0 * t});
  EXPECT_NEAR(p.forecast(3)->value(), 1000.0 + 40.0 * 52, 1e-6);
}

TEST(EwmaTrendPredictor, ForecastIsClampedAtZero) {
  EwmaTrendPredictor p(0.25, 0.08);
  p.observe(Watts{100.0});
  p.observe(Watts{0.0});  // trend -100: a long horizon would go negative
  EXPECT_DOUBLE_EQ(p.forecast(5)->value(), 0.0);
}

TEST(EwmaTrendPredictor, CheckpointRoundTripContinuesBitIdentically) {
  EwmaTrendPredictor a(0.25, 0.08);
  for (int t = 0; t < 37; ++t) {
    a.observe(Watts{1200.0 + 90.0 * std::sin(0.37 * t)});
  }
  EwmaTrendPredictor b(0.25, 0.08);
  b.restore_state(a.checkpoint_state());
  for (int t = 37; t < 60; ++t) {
    const Watts x{1200.0 + 90.0 * std::sin(0.37 * t)};
    a.observe(x);
    b.observe(x);
    EXPECT_EQ(a.forecast(5)->value(), b.forecast(5)->value()) << "t=" << t;
  }
}

TEST(EwmaTrendPredictor, RestoreRejectsForeignState) {
  EwmaTrendPredictor p(0.25, 0.08);
  EXPECT_THROW(p.restore_state({}), std::invalid_argument);
  EXPECT_THROW(p.restore_state({1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(p.restore_state({1.0, 2.0, -1.0}), std::invalid_argument);
}

// -- PeriodicityPredictor ------------------------------------------------

TEST(PeriodicityPredictor, FallsBackToHoltUntilTheWindowFills) {
  PeriodicityPredictor p(16, 0.25, 0.08);
  EwmaTrendPredictor holt(0.25, 0.08);
  EXPECT_FALSE(p.model_valid());
  p.refresh();  // cheap no-op before the first fill
  EXPECT_FALSE(p.model_valid());
  for (int t = 0; t < 10; ++t) {
    const Watts x{500.0 + 13.0 * t};
    p.observe(x);
    holt.observe(x);
  }
  ASSERT_TRUE(p.forecast(4).has_value());
  EXPECT_EQ(p.forecast(4)->value(), holt.forecast(4)->value());
}

TEST(PeriodicityPredictor, LocksOntoAPeriodicLoad) {
  // Period 16 divides the window (32), so the dominant DFT bin lands on
  // the true frequency. The fit is not bit-exact — the least-squares
  // trend line absorbs a sliver of the harmonic (sum of i*cos(2*pi*k*i/n)
  // is -n/2, not 0) — but it must track the oscillation through a full
  // future cycle, which a trend-only model is structurally blind to.
  const auto signal = [](std::int64_t t) {
    return 1000.0 + 100.0 * std::cos(2.0 * 3.14159265358979323846 *
                                     static_cast<double>(t) / 16.0);
  };
  PeriodicityPredictor p(32, 0.25, 0.08);
  for (std::int64_t t = 0; t < 64; ++t) p.observe(Watts{signal(t)});
  p.refresh();
  ASSERT_TRUE(p.model_valid());
  for (std::int64_t h = 1; h <= 16; ++h) {
    EXPECT_NEAR(p.forecast(h)->value(), signal(63 + h), 20.0) << "h=" << h;
  }
  // Phase check: half a period ahead the signal bottoms out, a full
  // period ahead it is back near the crest — the forecast must swing.
  EXPECT_GT(p.forecast(16)->value() - p.forecast(8)->value(), 150.0);
}

TEST(PeriodicityPredictor, CheckpointRoundTripContinuesBitIdentically) {
  const auto signal = [](std::int64_t t) {
    return 900.0 + 2.0 * static_cast<double>(t) +
           60.0 * std::sin(0.5 * static_cast<double>(t));
  };
  PeriodicityPredictor a(16, 0.25, 0.08);
  for (std::int64_t t = 0; t < 40; ++t) a.observe(Watts{signal(t)});
  a.refresh();
  ASSERT_TRUE(a.model_valid());

  PeriodicityPredictor b(16, 0.25, 0.08);
  b.restore_state(a.checkpoint_state());
  EXPECT_TRUE(b.model_valid());
  for (std::int64_t t = 40; t < 70; ++t) {
    a.observe(Watts{signal(t)});
    b.observe(Watts{signal(t)});
    if (t == 55) {  // same refresh cadence on both sides
      a.refresh();
      b.refresh();
    }
    EXPECT_EQ(a.forecast(7)->value(), b.forecast(7)->value()) << "t=" << t;
  }
}

TEST(PeriodicityPredictor, RestoreRejectsForeignState) {
  PeriodicityPredictor a(16, 0.25, 0.08);
  for (int t = 0; t < 20; ++t) a.observe(Watts{100.0 + t});
  PeriodicityPredictor wrong_window(32, 0.25, 0.08);
  EXPECT_THROW(wrong_window.restore_state(a.checkpoint_state()),
               std::invalid_argument);
  PeriodicityPredictor b(16, 0.25, 0.08);
  auto s = a.checkpoint_state();
  s.pop_back();
  EXPECT_THROW(b.restore_state(s), std::invalid_argument);
}

// -- ForecastScorer ------------------------------------------------------

TEST(ForecastScorer, ScoresTheForecastThatTargetedThisCycle) {
  ForecastScorer s;
  s.reset(2);
  // Cycle 0: forecast 120 for cycle 2. Pipeline not full — nothing scored.
  EXPECT_FALSE(s.step(50.0, 100.0, 120.0).has_value());
  // Cycle 1: forecast 80 for cycle 3.
  EXPECT_FALSE(s.step(60.0, 100.0, 80.0).has_value());
  // Cycle 2: realised 90 vs the 120 predicted two cycles ago — a false
  // alarm (predicted >= P_L, realised < P_L).
  const auto a = s.step(90.0, 100.0, std::nullopt);
  ASSERT_TRUE(a.has_value());
  EXPECT_DOUBLE_EQ(a->abs_error, 30.0);
  EXPECT_TRUE(a->overshoot);
  EXPECT_FALSE(a->miss);
  // Cycle 3: realised 110 vs the 80 predicted — an unseen ramp.
  const auto b = s.step(110.0, 100.0, 50.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(b->miss);
  EXPECT_FALSE(b->overshoot);
  // Cycle 4: the slot written at cycle 2 held no forecast — not scored.
  EXPECT_FALSE(s.step(70.0, 100.0, 50.0).has_value());
  EXPECT_EQ(s.overshoots(), 1u);
  EXPECT_EQ(s.misses(), 1u);
  EXPECT_EQ(s.scored(), 2u);
}

// -- PI-C / PRED-C policies ----------------------------------------------

TEST(PiTuning, ValidationRejectsNonsense) {
  EXPECT_NO_THROW(PiTuning{}.validate());
  PiTuning t;
  t.kp = -1.0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = PiTuning{};
  t.kp = 0.0;
  t.ki = 0.0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = PiTuning{};
  t.integral_cap = -0.5;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(PiC, ActsOnTheForecastNotTheMeter) {
  PiCollection p;
  // Meter green (950 < 1000), no forecast: negative error, zero demand.
  auto ctx = three_job_ctx(-50.0);
  EXPECT_TRUE(p.select(ctx).empty());
  // Same meter, but a forecast of 1100: error 0.1, integral 0.1, demand
  // 1000 * (1.0*0.1 + 0.05*0.1) = 105 W -> jobs by descending power:
  // 600 (saves 40) + 450 (saves 60) + 200 (saves 20) = 120 >= 105.
  ctx.has_forecast = true;
  ctx.forecast_power = Watts{1100.0};
  EXPECT_EQ(p.select(ctx), (std::vector<hw::NodeId>{0, 1, 3, 4, 5, 2}));
}

TEST(PiC, IntegralChargesToTheCapAndDischargesOnHeadroom) {
  PiCollection p;  // default cap 0.5
  auto hot = three_job_ctx(-50.0);
  hot.has_forecast = true;
  hot.forecast_power = Watts{1200.0};  // error +0.2 per cycle
  (void)p.select(hot);
  EXPECT_DOUBLE_EQ(p.integral(), 0.2);
  (void)p.select(hot);
  (void)p.select(hot);
  EXPECT_DOUBLE_EQ(p.integral(), 0.5);  // anti-windup clamp
  (void)p.select(hot);
  EXPECT_DOUBLE_EQ(p.integral(), 0.5);

  auto cool = three_job_ctx(-50.0);
  cool.has_forecast = true;
  cool.forecast_power = Watts{700.0};  // error -0.3: discharge
  (void)p.select(cool);
  EXPECT_DOUBLE_EQ(p.integral(), 0.2);
  (void)p.select(cool);
  EXPECT_DOUBLE_EQ(p.integral(), 0.0);  // floors at zero, never owes
}

TEST(PiC, ZoneShareModeHonoursTheShareWithoutTouchingPiState) {
  PiCollection p;
  // Charge the integral first so an accidental update would be visible.
  auto hot = three_job_ctx(-50.0);
  hot.has_forecast = true;
  hot.forecast_power = Watts{1200.0};
  (void)p.select(hot);
  ASSERT_DOUBLE_EQ(p.integral(), 0.2);

  // Zone-shard synthetic context: p_low == 0, system_power == share.
  auto share = three_job_ctx(0.0);
  share.p_low = Watts{0.0};
  share.system_power = Watts{30.0};
  EXPECT_EQ(p.select(share), (std::vector<hw::NodeId>{0, 1}));  // 40 >= 30
  EXPECT_DOUBLE_EQ(p.integral(), 0.2);  // untouched
}

TEST(PiC, CheckpointRoundTripsTheIntegral) {
  PiCollection a;
  auto hot = three_job_ctx(-50.0);
  hot.has_forecast = true;
  hot.forecast_power = Watts{1200.0};
  (void)a.select(hot);
  const auto state = a.checkpoint_state();
  ASSERT_EQ(state.size(), 1u);
  PiCollection b;
  b.restore_state(state);
  EXPECT_EQ(b.integral(), a.integral());
  EXPECT_THROW(b.restore_state({1.0, 2.0}), std::invalid_argument);
}

TEST(PredC, CoversTheForecastGapAndDegradesGracefully) {
  PredictiveCollection p;
  auto ctx = three_job_ctx(-50.0);
  // No forecast, meter green: demand 950 - 1000 < 0 -> nothing selected
  // (the reactive fallback only acts when the meter itself is over).
  EXPECT_TRUE(p.select(ctx).empty());
  // Forecast 1100: demand 100 W -> 600-W job (40) + 450-W job (60) = 100.
  ctx.has_forecast = true;
  ctx.forecast_power = Watts{1100.0};
  EXPECT_EQ(p.select(ctx), (std::vector<hw::NodeId>{0, 1, 3, 4, 5}));
}

TEST(Registry, PredictivePoliciesAreForecastDrivenOthersAreNot) {
  EXPECT_TRUE(make_policy("pi-c")->forecast_driven());
  EXPECT_TRUE(make_policy("pred-c")->forecast_driven());
  EXPECT_FALSE(make_policy("mpc-c")->forecast_driven());
  EXPECT_FALSE(make_policy("hri-c")->forecast_driven());
}

TEST(Registry, PiTuningFlowsThroughMakePolicy) {
  PiTuning t;
  t.kp = 0.0;
  t.ki = 0.0;
  EXPECT_THROW(make_policy("pi-c", t), std::invalid_argument);
  // Non-predictive policies ignore the tuning entirely.
  EXPECT_NO_THROW(make_policy("mpc-c", t));
}

// -- root: predictive elevation -----------------------------------------
//
// The control root decides the band (elevating green to yellow when a
// forecast-driven policy sees P_L coming) and the engine runs whatever
// band it is handed.

/// A root with P_L = 1680, P_H = 1860 from the first cycle and a Holt
/// predictor at horizon 5 (the manager tests' predictive_params()).
ControlRoot predictive_root() {
  ThresholdParams t;
  t.provision = Watts{2000.0};
  t.training_cycles = 0;
  t.adjust_period_cycles = 1000;
  PredictionParams p;
  p.enabled = true;
  p.kind = "ewma";
  p.horizon_cycles = 5;
  return ControlRoot(t, p, ControlFaultParams{}, common::Rng(1));
}

TEST(CappingEngine, ElevatesGreenToYellowWhenTheForecastCrossesPLow) {
  ControlRoot root = predictive_root();
  root.cycle(Watts{1500.0}, /*forecast_driven=*/true);
  // Ramp +60 W/cycle: the horizon-5 forecast is 1860 >= P_L while the
  // meter (1560) is solidly green.
  const ManagerReport r = root.cycle(Watts{1560.0}, true);
  EXPECT_EQ(classify_power(r.measured, r.p_low, r.p_high), PowerState::kGreen);
  EXPECT_TRUE(root.alarm());
  EXPECT_EQ(r.state, PowerState::kYellow);
  EXPECT_EQ(root.predictive_elevations(), 1u);
  EXPECT_EQ(r.predictive_elevations, 1u);

  CappingEngine e(CappingParams{});
  PiCollection pi;
  auto ctx = three_job_ctx(-100.0);  // meter 900: solidly green
  ctx.has_forecast = true;
  ctx.forecast_power = Watts{1050.0};
  const CycleDecision d = e.cycle(r.state, pi, ctx);
  EXPECT_EQ(d.state, PowerState::kYellow);
  // error 0.05 -> demand 1000*(0.05 + 0.05*0.05) = 52.5 W -> the 600-W
  // job (40) plus the 450-W job (60): five nodes throttled before the
  // meter ever crossed the threshold.
  EXPECT_EQ(d.commands.size(), 5u);
}

TEST(CappingEngine, ReactivePoliciesAreNeverElevated) {
  ControlRoot root = predictive_root();
  root.cycle(Watts{1500.0}, /*forecast_driven=*/false);
  const ManagerReport r = root.cycle(Watts{1560.0}, false);
  ASSERT_TRUE(r.has_forecast);
  EXPECT_FALSE(root.alarm());
  EXPECT_EQ(r.state, PowerState::kGreen);
  EXPECT_EQ(root.predictive_elevations(), 0u);

  CappingEngine e(CappingParams{});
  MostPowerConsumingCollection mpc_c;
  auto ctx = three_job_ctx(-100.0);
  ctx.has_forecast = true;
  ctx.forecast_power = Watts{1050.0};
  const CycleDecision d = e.cycle(r.state, mpc_c, ctx);
  EXPECT_EQ(d.state, PowerState::kGreen);
  EXPECT_TRUE(d.commands.empty());
}

TEST(CappingEngine, ElevationRequiresAForecastAndNeverReachesRed) {
  ControlRoot root = predictive_root();
  // No forecast yet (one sample, no trend): plain green cycle.
  ManagerReport r = root.cycle(Watts{1500.0}, true);
  EXPECT_FALSE(r.has_forecast);
  EXPECT_EQ(r.state, PowerState::kGreen);
  // A catastrophic forecast (1670 + 5 * 170 = 2520 W, far above P_H) still
  // only reaches the yellow path — red stays strictly meter-driven so a
  // bad model cannot floor the cluster.
  r = root.cycle(Watts{1670.0}, true);
  ASSERT_TRUE(r.has_forecast);
  EXPECT_GE(r.forecast.value(), r.p_high.value());
  EXPECT_EQ(r.state, PowerState::kYellow);
  EXPECT_EQ(root.predictive_elevations(), 1u);
}

// -- manager integration -------------------------------------------------

struct Rig {
  std::vector<hw::Node> nodes;
  sched::Scheduler scheduler;

  explicit Rig(int n)
      : scheduler(std::vector<int>(static_cast<std::size_t>(n), 12), {},
                  common::Rng(3)) {
    for (int i = 0; i < n; ++i) {
      nodes.emplace_back(static_cast<hw::NodeId>(i),
                         hw::tianhe1a_node_spec());
    }
  }

  void load(double utilization) {
    for (auto& n : nodes) {
      hw::OperatingPoint op;
      op.cpu_utilization = utilization;
      op.mem_used = n.spec().mem_total * 0.4;
      op.mem_total = n.spec().mem_total;
      op.tau = Seconds{1.0};
      op.nic_bandwidth = n.spec().nic_bandwidth;
      n.set_operating_point(op);
      n.set_busy(true);
    }
  }

  void run_job(workload::JobId id, int nprocs) {
    scheduler.submit(workload::Job(
        id, workload::npb_by_name("lu", workload::NpbClass::kC), nprocs,
        Seconds{0.0}));
    scheduler.try_launch(Seconds{0.0});
  }
};

/// Frozen thresholds (P_L = 1680, P_H = 1860), noise-free telemetry, and
/// an EWMA predictor at horizon 5.
CappingManagerParams predictive_params() {
  CappingManagerParams p;
  p.thresholds.provision = Watts{2000.0};
  p.thresholds.training_cycles = 0;
  p.thresholds.adjust_period_cycles = 1000;
  p.capping.steady_green_cycles = 3;
  p.collector.agent.utilization_noise = 0.0;
  p.collector.agent.nic_noise = 0.0;
  p.green_collect_stride = 1;
  p.prediction.enabled = true;
  p.prediction.kind = "ewma";
  p.prediction.horizon_cycles = 5;
  return p;
}

TEST(CappingManager, ActsBeforeTheMeterCrossesTheThreshold) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  CappingManager m(predictive_params(), make_policy("pi-c"), common::Rng(5));
  m.set_candidate_set({0, 1, 2, 3});

  // One sample: the model has no trend yet, the cycle is plain green.
  auto r = m.cycle(Watts{1500.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_FALSE(r.has_forecast);
  EXPECT_EQ(r.state, PowerState::kGreen);

  // Ramp at +60 W/cycle: after the second sample Holt holds level 1560,
  // trend 60, so the horizon-5 forecast is 1860 >= P_L = 1680 — the
  // manager runs the yellow path while the meter still reads green.
  r = m.cycle(Watts{1560.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  ASSERT_TRUE(r.has_forecast);
  EXPECT_DOUBLE_EQ(r.forecast.value(), 1860.0);
  EXPECT_EQ(r.state, PowerState::kYellow);
  EXPECT_EQ(r.predictive_elevations, 1u);
  EXPECT_GT(r.targets, 0u);
  EXPECT_EQ(m.root().forecast()->value(), 1860.0);
  ASSERT_NE(m.root().predictor(), nullptr);
}

TEST(CappingManager, PredictionDisabledIsByteForByteReactive) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  CappingManagerParams p = predictive_params();
  p.prediction = PredictionParams{};
  CappingManager m(p, make_policy("pi-c"), common::Rng(5));
  m.set_candidate_set({0, 1, 2, 3});
  for (int i = 0; i < 4; ++i) {
    const auto r = m.cycle(Watts{1500.0 + 50.0 * i}, rig.nodes,
                           rig.scheduler, Seconds{1.0 + i});
    EXPECT_FALSE(r.has_forecast);
    EXPECT_EQ(r.predictive_elevations, 0u);
    // 1500..1650 all under P_L = 1680: a reactive PI-C stays green.
    EXPECT_EQ(r.state, PowerState::kGreen);
  }
  EXPECT_EQ(m.root().predictor(), nullptr);
  EXPECT_FALSE(m.root().forecast().has_value());
}

TEST(CappingManager, ScorerReportsAccuracyOncePipelineFills) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  CappingManagerParams p = predictive_params();
  p.prediction.horizon_cycles = 2;
  CappingManager m(p, make_policy("pred-c"), common::Rng(5));
  m.set_candidate_set({0, 1, 2, 3});
  ManagerReport r;
  for (int i = 0; i < 6; ++i) {
    r = m.cycle(Watts{1000.0}, rig.nodes, rig.scheduler, Seconds{1.0 + i});
  }
  // Constant input: forecasts are exact, no overshoots and no misses.
  EXPECT_TRUE(r.forecast_scored);
  EXPECT_DOUBLE_EQ(r.forecast_abs_error, 0.0);
  EXPECT_EQ(r.predictor_overshoots, 0u);
  EXPECT_EQ(r.predictor_misses, 0u);
  EXPECT_GT(m.root().forecast_scorer().scored(), 0u);
}

TEST(Checkpoint, PredictorWarmRestartResumesBitIdentically) {
  // Twin rigs: A runs 6 cycles of a ramp and checkpoints; C runs the full
  // 12 uninterrupted. B = fresh manager + restore must replay C's cycles
  // 7..12 exactly — same forecasts to the last bit, same decisions.
  Rig rig_a(4);
  rig_a.load(0.9);
  rig_a.run_job(1, 48);
  Rig rig_c(4);
  rig_c.load(0.9);
  rig_c.run_job(1, 48);
  const auto meter = [](int i) { return Watts{1400.0 + 25.0 * i}; };

  CappingManager a(predictive_params(), make_policy("pi-c"), common::Rng(5));
  a.set_candidate_set({0, 1, 2, 3});
  CappingManager c(predictive_params(), make_policy("pi-c"), common::Rng(5));
  c.set_candidate_set({0, 1, 2, 3});
  for (int i = 0; i < 6; ++i) {
    a.cycle(meter(i), rig_a.nodes, rig_a.scheduler, Seconds{1.0 + i});
    c.cycle(meter(i), rig_c.nodes, rig_c.scheduler, Seconds{1.0 + i});
  }
  const std::string image = encode_checkpoint(a.checkpoint());

  CappingManager b(predictive_params(), make_policy("pi-c"), common::Rng(5));
  b.set_candidate_set({0, 1, 2, 3});
  b.restore(decode_shard_checkpoint(image));
  ASSERT_TRUE(b.root().forecast().has_value());
  EXPECT_EQ(b.root().forecast()->value(), a.root().forecast()->value());

  for (int i = 6; i < 12; ++i) {
    const auto rb =
        b.cycle(meter(i), rig_a.nodes, rig_a.scheduler, Seconds{1.0 + i});
    const auto rc =
        c.cycle(meter(i), rig_c.nodes, rig_c.scheduler, Seconds{1.0 + i});
    EXPECT_EQ(rb.has_forecast, rc.has_forecast) << "cycle " << i;
    EXPECT_EQ(rb.forecast.value(), rc.forecast.value()) << "cycle " << i;
    EXPECT_EQ(rb.state, rc.state) << "cycle " << i;
    EXPECT_EQ(rb.targets, rc.targets) << "cycle " << i;
    EXPECT_EQ(rb.predictive_elevations, rc.predictive_elevations)
        << "cycle " << i;
  }
}

TEST(Checkpoint, FftPredictorAndPiIntegralSurviveTheImage) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  CappingManagerParams p = predictive_params();
  p.prediction.kind = "fft";
  p.prediction.window_cycles = 8;
  p.prediction.refresh_cycles = 4;
  CappingManager a(p, make_policy("pi-c"), common::Rng(5));
  a.set_candidate_set({0, 1, 2, 3});
  for (int i = 0; i < 10; ++i) {
    a.cycle(Watts{1600.0 + 60.0 * (i % 3)}, rig.nodes, rig.scheduler,
            Seconds{1.0 + i});
  }
  const ShardCheckpoint cp = a.checkpoint();
  EXPECT_FALSE(cp.predictor_state.empty());
  const std::string text = encode_checkpoint(cp);
  EXPECT_EQ(encode_checkpoint(decode_shard_checkpoint(text)), text);

  CappingManager b(p, make_policy("pi-c"), common::Rng(5));
  b.set_candidate_set({0, 1, 2, 3});
  b.restore(decode_shard_checkpoint(text));
  const auto* pi_a = dynamic_cast<const PiCollection*>(&a.policy());
  const auto* pi_b = dynamic_cast<const PiCollection*>(&b.policy());
  ASSERT_NE(pi_a, nullptr);
  ASSERT_NE(pi_b, nullptr);
  EXPECT_EQ(pi_b->integral(), pi_a->integral());
  ASSERT_TRUE(b.root().forecast().has_value());
  EXPECT_EQ(b.root().forecast()->value(), a.root().forecast()->value());
}

// -- zone tree integration -----------------------------------------------

TEST(ZoneTree, RootForecastElevatesTheTreeAndCheckpoints) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  ZoneTreeParams zp;
  zp.zone_count = 2;
  ZoneTreeManager m(
      zp, predictive_params(), [] { return make_policy("pi-c"); },
      common::Rng(1));
  m.set_candidate_set({0, 1, 2, 3});

  auto r = m.cycle(Watts{1500.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_EQ(r.state, PowerState::kGreen);
  r = m.cycle(Watts{1560.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  ASSERT_TRUE(r.has_forecast);
  EXPECT_DOUBLE_EQ(r.forecast.value(), 1860.0);  // >= P_L = 1680
  EXPECT_EQ(r.state, PowerState::kYellow);
  EXPECT_GE(m.root().predictive_elevations(), 1u);
  EXPECT_GE(r.predictive_elevations, 1u);

  const TreeCheckpoint cp = m.checkpoint();
  EXPECT_FALSE(cp.predictor_state.empty());
  const std::string text = encode_checkpoint(cp);
  EXPECT_EQ(encode_checkpoint(decode_tree_checkpoint(text)), text);

  ZoneTreeManager fresh(
      zp, predictive_params(), [] { return make_policy("pi-c"); },
      common::Rng(1));
  fresh.set_candidate_set({0, 1, 2, 3});
  fresh.restore(decode_tree_checkpoint(text));
  ASSERT_TRUE(fresh.root().forecast().has_value());
  EXPECT_EQ(fresh.root().forecast()->value(), m.root().forecast()->value());
}

// -- whole-cluster determinism of the predictive stack -------------------

/// Span histograms record wall-clock time and are non-deterministic by
/// design; everything else in the export must be bit-identical.
std::string strip_spans(const std::string& text) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    if (line.find("phase_seconds") == std::string_view::npos) {
      out.append(line);
      out.push_back('\n');
    }
    pos = eol + 1;
  }
  return out;
}

struct PredictiveRun {
  std::vector<metrics::CyclePoint> points;
  std::string prom;
  std::uint64_t samples_lost = 0;
  CappingManager::IncrementalStats stats;
  std::size_t candidates = 0;
};

/// A degraded-plane cluster run under a predictive policy: lossy delayed
/// transport, agent dropout and corruption, forecasts live — the whole
/// stack must stay bit-identical across worker-thread counts and across
/// incremental/rebuild context modes. With `clean_slots`, agent noise and
/// transport delay are zeroed so quiet slots stay clean between builds.
PredictiveRun run_predictive_cluster(std::size_t worker_threads,
                                     const std::string& policy,
                                     bool incremental,
                                     bool clean_slots = false) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 100;
  cfg.spec = hw::tianhe1a_node_spec();
  cfg.tick = Seconds{1.0};
  cfg.control_period = Seconds{4.0};
  cfg.seed = fault_seed(20260808);
  cfg.scheduler.max_procs_per_node = 3;
  cfg.worker_threads = worker_threads;
  cfg.parallel_node_threshold = 1;
  cfg.parallel_grain = 16;
  cluster::Cluster cl(cfg);

  CappingManagerParams p;
  // The clean-slot variant runs under a tighter provision: at 0.75 some
  // swept seeds never leave quiet green and build no context at all.
  p.thresholds.provision = cl.theoretical_peak() * (clean_slots ? 0.5 : 0.75);
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.cycle_period = cfg.control_period;
  p.collector.parallel_threshold = 16;
  p.collector.parallel_grain = 16;
  p.collector.transport.loss_rate = 0.05;
  p.collector.transport.delay_cycles = 2;
  p.collector.faults.agent_dropout_rate = 0.02;
  p.collector.faults.agent_recovery_rate = 0.25;
  p.collector.faults.corruption_rate = 0.01;
  p.max_sample_age_cycles = 3;
  p.incremental_context = incremental;
  p.prediction.enabled = true;
  p.prediction.kind = "ewma";
  p.prediction.horizon_cycles = 5;
  if (clean_slots) {
    p.collector.agent.utilization_noise = 0.0;
    p.collector.agent.nic_noise = 0.0;
    p.collector.transport.delay_cycles = 0;
  }
  auto mgr = std::make_unique<CappingManager>(
      p, make_policy(policy), common::Rng(cfg.seed ^ 0x9d2c5680u));
  mgr->set_candidate_set(cl.controllable_nodes());
  const CappingManager& flat = *mgr;
  cl.set_manager(std::move(mgr));

  cl.start_recording();
  cl.run(Seconds{300.0});

  PredictiveRun out;
  out.points = cl.recorder().points();
  out.prom = strip_spans(cl.metrics().prometheus_text());
  out.samples_lost = cl.last_report().samples_lost;
  out.stats = flat.incremental_stats();
  out.candidates = flat.candidate_set().size();
  return out;
}

void expect_identical(const PredictiveRun& a, const PredictiveRun& b,
                      bool compare_prom) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const metrics::CyclePoint& pa = a.points[i];
    const metrics::CyclePoint& pb = b.points[i];
    EXPECT_EQ(pa.time_s, pb.time_s) << "tick " << i;
    EXPECT_EQ(pa.power_w, pb.power_w) << "tick " << i;
    EXPECT_EQ(pa.state, pb.state) << "tick " << i;
    EXPECT_EQ(pa.targets, pb.targets) << "tick " << i;
    EXPECT_EQ(pa.transitions, pb.transitions) << "tick " << i;
    EXPECT_EQ(pa.stale_nodes, pb.stale_nodes) << "tick " << i;
    EXPECT_EQ(pa.skipped_targets, pb.skipped_targets) << "tick " << i;
  }
  EXPECT_EQ(a.samples_lost, b.samples_lost);
  // The Prometheus export is the cross-cutting check: every counter and
  // gauge — including the pcap_predictor_* series — in one diff.
  // Incremental/rebuild runs legitimately differ in the context-build
  // statistics, so only thread-count comparisons include it.
  if (compare_prom) {
    EXPECT_EQ(a.prom, b.prom);
  }
}

TEST(PredictiveDeterminism, PiCDegradedRunIsThreadInvariant) {
  const PredictiveRun serial = run_predictive_cluster(1, "pi-c", true);
  ASSERT_GT(serial.points.size(), 250u);
  EXPECT_GT(serial.samples_lost, 0u);  // the fault machinery really fired
  EXPECT_NE(serial.prom.find("pcap_predictor_forecast_watts"),
            std::string::npos);
  const PredictiveRun four = run_predictive_cluster(4, "pi-c", true);
  expect_identical(serial, four, /*compare_prom=*/true);
}

TEST(PredictiveDeterminism, PredCDegradedRunIsThreadInvariant) {
  const PredictiveRun serial = run_predictive_cluster(1, "pred-c", true);
  const PredictiveRun four = run_predictive_cluster(4, "pred-c", true);
  expect_identical(serial, four, /*compare_prom=*/true);
}

TEST(PredictiveDeterminism, IncrementalAndRebuildContextsAgree) {
  const PredictiveRun inc = run_predictive_cluster(1, "pi-c", true);
  const PredictiveRun rebuild = run_predictive_cluster(1, "pi-c", false);
  expect_identical(inc, rebuild, /*compare_prom=*/false);
}

// The rig above dirties every slot every cycle (agent noise, two-cycle
// delay). Zeroing both keeps quiet slots clean, so the selective delta
// path meets the stale, rejected and missing views the faults make.
TEST(PredictiveDeterminism, IncrementalAndRebuildAgreeWithCleanSlots) {
  const PredictiveRun inc = run_predictive_cluster(1, "pi-c", true, true);
  ASSERT_GT(inc.points.size(), 250u);
  EXPECT_GT(inc.samples_lost, 0u);
  EXPECT_GT(inc.stats.full_builds, 0u);
  EXPECT_GT(inc.stats.delta_builds, 0u);
  EXPECT_LT(inc.stats.dirty_slots, inc.stats.delta_builds * inc.candidates);
  const PredictiveRun rebuild = run_predictive_cluster(1, "pi-c", false, true);
  EXPECT_EQ(rebuild.stats.delta_builds, 0u);
  expect_identical(inc, rebuild, /*compare_prom=*/false);
}

}  // namespace
}  // namespace pcap::power
