// End-to-end simulator benchmark.
//
// Runs complete capping experiments one after another (a closed loop: the
// next experiment starts when the previous one has finished) and times
// each public call of the run_experiment pipeline from outside:
//
//   probe_uncapped_peak -> Cluster(...) -> make_manager -> set_manager
//   -> Cluster::run(training) -> start_recording -> Cluster::run(measured)
//   -> metric extraction -> teardown
//
// Usage:
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 is the timed run: obs timing off, no wrapper around the
// manager; it prints the end-to-end metrics. --trace 1 is the traced run:
// every experiment runs once timed and once with obs timing on and a
// timing wrapper around the manager; it prints the per-layer metrics.
//
// Every staged experiment is checked against run_experiment(cfg): the
// simulated outputs and the Prometheus export (without the wall-clock
// pcap_cycle_phase_seconds lines) must match bit for bit. A mismatch or an
// exception fails the experiment. The last line on stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is 1
// when any experiment failed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "cluster/scenario.hpp"
#include "common/logging.hpp"
#include "metrics/performance.hpp"
#include "metrics/power_metrics.hpp"
#include "obs/registry.hpp"
#include "power/manager.hpp"
#include "power/zone_manager.hpp"

namespace {

using namespace pcap;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --------------------------------------------------------------------------
// Warning/error counter installed as the logger sink: nothing reaches the
// terminal inside timed regions, and the count becomes common.log_warnings.

std::atomic<std::uint64_t> g_log_warnings{0};

void install_counting_log_sink() {
  common::Logger::instance().set_sink(
      [](common::LogLevel level, const std::string& /*line*/) {
        if (level >= common::LogLevel::kWarn) {
          g_log_warnings.fetch_add(1, std::memory_order_relaxed);
        }
      });
}

// --------------------------------------------------------------------------
// Workloads. Every input is a pure function of --seed.

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  // splitmix64 over (seed, k)
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ull + (k + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) & 0xffffffffull;
}

struct Workload {
  std::string name;
  /// One round of experiments; a run repeats whole rounds until it has
  /// measured --seconds of pipeline time.
  std::vector<cluster::ExperimentConfig> round;
};

cluster::ExperimentConfig large_scenario(std::uint64_t seed, std::size_t nodes,
                                         double calibrate_s, double train_s,
                                         double measure_s) {
  cluster::ExperimentConfig cfg = cluster::paper_scenario(seed);
  cfg.cluster.num_nodes = nodes;
  cfg.cluster.worker_threads = 1;
  cfg.manager = "mpc-c";
  cfg.calibration_duration = Seconds{calibrate_s};
  cfg.training = Seconds{train_s};
  cfg.measured = Seconds{measure_s};
  return cfg;
}

/// Flat 4096 nodes under three fault families at once.
cluster::ExperimentConfig chaos_scenario(std::uint64_t seed) {
  cluster::ExperimentConfig cfg =
      large_scenario(seed, 4096, 600.0, 600.0, 900.0);
  // Telemetry faults (faulty_telemetry_scenario).
  const cluster::ExperimentConfig tel = cluster::faulty_telemetry_scenario();
  cfg.provision_fraction = tel.provision_fraction;
  cfg.transport = tel.transport;
  cfg.faults = tel.faults;
  cfg.max_sample_age_cycles = tel.max_sample_age_cycles;
  cfg.stale_power_margin = tel.stale_power_margin;
  // Lossy actuation and reconciliation (lossy_actuation_scenario).
  const cluster::ExperimentConfig act = cluster::lossy_actuation_scenario();
  cfg.actuation = act.actuation;
  cfg.reconciliation = act.reconciliation;
  // Root outages, stalls and the failsafe watchdog
  // (controller_outage_scenario); its zone-shard windows need a tree.
  const cluster::ExperimentConfig ctl = cluster::controller_outage_scenario();
  cfg.control = ctl.control;
  cfg.control.zone_outage_rate = 0.0;
  cfg.cluster.watchdog = ctl.cluster.watchdog;
  return cfg;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w{name, {}};
  if (name == "paper128") {
    // The figure sweep: the paper's 128-node testbed over the policies.
    const char* policies[] = {"mpc", "mpc-c", "lpc-c", "bfp",
                              "hri-c", "pi-c", "pred-c"};
    for (std::uint64_t k = 0; k < 2; ++k) {
      for (const char* p : policies) {
        cluster::ExperimentConfig cfg =
            cluster::paper_scenario(derive_seed(seed, k));
        cfg.manager = p;
        cfg.cluster.worker_threads = 1;
        w.round.push_back(cfg);
      }
    }
  } else if (name == "flat32k") {
    w.round.push_back(
        large_scenario(derive_seed(seed, 0), 32768, 300.0, 300.0, 600.0));
  } else if (name == "zones131k") {
    cluster::ExperimentConfig cfg = large_scenario(
        derive_seed(seed, 0), 131072, 300.0, 300.0, 300.0);
    cfg.zone_count = 8;
    cfg.zone_assignment = "block";
    cfg.zone_redistribution = "uniform";
    w.round.push_back(cfg);
  } else if (name == "chaos4k") {
    // Six seeds: each draws its own fault schedule, and so its own cost.
    for (std::uint64_t k = 0; k < 6; ++k) {
      w.round.push_back(chaos_scenario(derive_seed(seed, k)));
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (paper128, flat32k, zones131k, chaos4k)");
  }
  return w;
}

double simulated_seconds(const cluster::ExperimentConfig& cfg) {
  double s = cfg.training.value() + cfg.measured.value();
  if (cfg.provision <= Watts{0.0}) s += cfg.calibration_duration.value();
  return s;
}

// --------------------------------------------------------------------------
// Timing wrapper around the manager (traced run only). Forwards the whole
// PowerManagerBase interface and times each cycle() by the band the
// returned report names, training cycles kept apart.

enum Band : std::size_t { kGreen, kYellow, kRed, kTrain, kBands };
constexpr std::array<const char*, kBands> kBandNames = {"green", "yellow",
                                                        "red", "train"};

struct CycleStats {
  std::array<std::uint64_t, kBands> cycles{};
  std::array<double, kBands> seconds{};
  std::uint64_t green_degraded = 0;  ///< green cycles entered with A_degraded
  std::uint64_t zones_active = 0;    ///< Σ zones_active_last_cycle
  std::vector<double> durations;     ///< every cycle, seconds

  [[nodiscard]] double total_seconds() const {
    double s = 0.0;
    for (const double x : seconds) s += x;
    return s;
  }
};

class TimedManager final : public power::PowerManagerBase {
 public:
  explicit TimedManager(std::unique_ptr<power::PowerManagerBase> inner)
      : inner_(std::move(inner)),
        flat_(dynamic_cast<const power::CappingManager*>(inner_.get())),
        tree_(dynamic_cast<const power::ZoneTreeManager*>(inner_.get())) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  power::ManagerReport cycle(Watts measured, std::vector<hw::Node>& nodes,
                             const sched::Scheduler& scheduler,
                             Seconds now) override {
    const bool degraded = degraded_nonempty();
    const auto t0 = Clock::now();
    power::ManagerReport report =
        inner_->cycle(measured, nodes, scheduler, now);
    const double dt = seconds_since(t0);
    const Band band =
        report.training ? kTrain : static_cast<Band>(report.state);
    ++stats_.cycles[band];
    stats_.seconds[band] += dt;
    if (band == kGreen && degraded) ++stats_.green_degraded;
    if (tree_ != nullptr) {
      stats_.zones_active += tree_->zones_active_last_cycle();
    }
    stats_.durations.push_back(dt);
    return report;
  }

  void set_thread_pool(common::ThreadPool* pool) override {
    inner_->set_thread_pool(pool);
  }
  void bind_metrics(obs::Registry& reg) override { inner_->bind_metrics(reg); }
  void set_watchdog(hw::FailsafeWatchdog* wd) override {
    inner_->set_watchdog(wd);
  }

  [[nodiscard]] const CycleStats& stats() const { return stats_; }
  /// The capping shards: the flat manager itself, or every zone's shard.
  [[nodiscard]] std::vector<const power::CappingManager*> shards() const {
    std::vector<const power::CappingManager*> out;
    if (flat_ != nullptr) out.push_back(flat_);
    if (tree_ != nullptr) {
      for (std::size_t z = 0; z < tree_->zone_count(); ++z) {
        out.push_back(&tree_->zone(z));
      }
    }
    return out;
  }

 private:
  [[nodiscard]] bool degraded_nonempty() const {
    for (const power::CappingManager* s : shards()) {
      if (!s->engine().degraded().empty()) return true;
    }
    return false;
  }

  std::unique_ptr<power::PowerManagerBase> inner_;
  const power::CappingManager* flat_ = nullptr;
  const power::ZoneTreeManager* tree_ = nullptr;
  CycleStats stats_;
};

// --------------------------------------------------------------------------
// Registry reads (existing series only).

std::uint64_t counter(const obs::Registry& reg, const std::string& key) {
  return reg.counter_value(key).value_or(0);
}

double phase_seconds(const obs::Registry& reg, const std::string& phase) {
  const auto h = reg.find_histogram(
      obs::series_key("pcap_cycle_phase_seconds", "phase=\"" + phase + "\""));
  return h ? reg.sum(*h) : 0.0;
}

const std::vector<std::string> kPhases = {"tick",    "node_sweep", "launch",
                                          "jobs",    "collect",    "context",
                                          "policy",  "actuate"};

/// Per-layer counters: metric name -> registry counter key.
const std::vector<std::pair<std::string, std::string>> kCounters = {
    {"power.targets", "pcap_manager_targets_total"},
    {"power.transitions", "pcap_manager_transitions_total"},
    {"power.acks", "pcap_manager_acks_total"},
    {"power.retries", "pcap_manager_retries_total"},
    {"power.divergences", "pcap_manager_divergences_total"},
    {"power.heals", "pcap_manager_heals_total"},
    {"power.abandoned", "pcap_actuation_commands_abandoned_total"},
    {"hw.watchdog_transitions", "pcap_watchdog_failsafe_transitions_total"},
    {"telemetry.samples_lost", "pcap_telemetry_samples_lost_total"},
    {"telemetry.samples_corrupted", "pcap_telemetry_samples_corrupted_total"},
    {"hw.node_refreshes", "pcap_cluster_node_refreshes_total"},
    {"cluster.ticks", "pcap_cluster_ticks_total"},
    {"sim.events", "pcap_sim_events_total"},
    {"sched.jobs_finished", "pcap_cluster_jobs_finished_total"},
};

/// Everything the traced run reads at the edges of the measured window.
using Probe = std::map<std::string, double>;

Probe read_probe(const cluster::Cluster& cl, const TimedManager& wrapper) {
  Probe p;
  const obs::Registry& reg = cl.metrics();
  for (const std::string& phase : kPhases) {
    p["span." + phase] = phase_seconds(reg, phase);
  }
  for (const auto& [name, key] : kCounters) {
    p[name] = static_cast<double>(counter(reg, key));
  }
  p["manager_s"] = wrapper.stats().total_seconds();
  double full = 0, delta = 0, noop = 0, dirty = 0, slot_builds = 0;
  double delivered = 0;
  for (const power::CappingManager* s : wrapper.shards()) {
    const auto& st = s->incremental_stats();
    full += static_cast<double>(st.full_builds);
    delta += static_cast<double>(st.delta_builds);
    noop += static_cast<double>(st.noop_builds);
    dirty += static_cast<double>(st.dirty_slots);
    slot_builds += static_cast<double>(st.delta_builds) *
                   static_cast<double>(s->candidate_set().size());
    delivered += static_cast<double>(s->collector().samples_delivered());
  }
  p["power.ctx_full_builds"] = full;
  p["power.ctx_delta_builds"] = delta;
  p["power.ctx_noop_builds"] = noop;
  p["ctx_dirty_slots"] = dirty;
  p["ctx_delta_slots"] = slot_builds;
  p["telemetry.samples_delivered"] = delivered;
  return p;
}

// --------------------------------------------------------------------------
// The staged pipeline.

struct Stages {
  double calibrate = 0, cluster = 0, manager = 0, train = 0, measure = 0,
         extract = 0, teardown = 0;
  [[nodiscard]] double setup() const { return cluster + manager; }
  [[nodiscard]] double total() const {
    return calibrate + setup() + train + measure + extract + teardown;
  }
};

/// Stage-wise minimum over several runs of one experiment.
Stages fastest(const std::vector<Stages>& runs) {
  Stages best = runs.front();
  for (const Stages& r : runs) {
    best.calibrate = std::min(best.calibrate, r.calibrate);
    best.cluster = std::min(best.cluster, r.cluster);
    best.manager = std::min(best.manager, r.manager);
    best.train = std::min(best.train, r.train);
    best.measure = std::min(best.measure, r.measure);
    best.extract = std::min(best.extract, r.extract);
    best.teardown = std::min(best.teardown, r.teardown);
  }
  return best;
}

/// What the traced run adds to an experiment.
struct Trace {
  CycleStats cycles;        ///< whole managed run (training + measured)
  Probe window;             ///< measured-window deltas
  std::size_t nodes = 0;
  double dedup_active = 0;  ///< share of shards with telemetry dedup armed
};

struct Staged {
  cluster::ExperimentResult result;
  Stages t;
  std::uint64_t log_warnings = 0;
  std::optional<Trace> trace;
};

/// run_experiment's step 5, verbatim in effect: the measured-window
/// totals are registry deltas against the counters read before recording.
struct CounterBase {
  std::uint64_t stale, fallback, skipped, retries, divergences, heals,
      adoptions;
};

CounterBase read_counter_base(const cluster::Cluster& cl) {
  const obs::Registry& reg = cl.metrics();
  return {counter(reg, "pcap_manager_stale_node_cycles_total"),
          counter(reg, "pcap_manager_fallback_node_cycles_total"),
          counter(reg, "pcap_manager_skipped_targets_total"),
          counter(reg, "pcap_manager_retries_total"),
          counter(reg, "pcap_manager_divergences_total"),
          counter(reg, "pcap_manager_heals_total"),
          counter(reg, "pcap_watchdog_adoptions_total")};
}

cluster::ExperimentResult extract(const cluster::Cluster& cl,
                                  const cluster::ExperimentConfig& config,
                                  std::size_t candidate_count, Watts provision,
                                  const CounterBase& base) {
  const obs::Registry& reg = cl.metrics();
  const auto delta = [&reg](const char* key, std::uint64_t b) {
    return static_cast<std::size_t>(counter(reg, key) - b);
  };
  cluster::ExperimentResult r;
  r.manager = config.manager;
  r.candidate_count = candidate_count;
  r.provision = provision;

  const auto trace = cl.recorder().power_trace();
  r.p_max = metrics::peak_power(trace);
  r.mean_power = metrics::mean_power(trace);
  r.energy = metrics::total_energy(trace);
  r.delta_pxt = metrics::accumulated_overspend(trace, provision);
  r.perf = metrics::summarize_performance(cl.finished_records());

  r.green_cycles = cl.recorder().state_count(0);
  r.yellow_cycles = cl.recorder().state_count(1);
  r.red_cycles = cl.recorder().state_count(2);
  r.never_red = r.red_cycles == 0;

  double util_sum = 0.0;
  std::size_t transitions = 0;
  for (const auto& p : cl.recorder().points()) {
    util_sum += p.manager_utilization;
    transitions += p.transitions;
  }
  r.stale_node_cycles =
      delta("pcap_manager_stale_node_cycles_total", base.stale);
  r.fallback_node_cycles =
      delta("pcap_manager_fallback_node_cycles_total", base.fallback);
  r.skipped_targets = delta("pcap_manager_skipped_targets_total", base.skipped);
  r.command_retries = delta("pcap_manager_retries_total", base.retries);
  r.divergences = delta("pcap_manager_divergences_total", base.divergences);
  r.heals = delta("pcap_manager_heals_total", base.heals);
  const power::ManagerReport& last = cl.last_report();
  r.samples_lost = last.samples_lost;
  r.samples_suppressed = last.samples_suppressed;
  r.samples_corrupted = last.samples_corrupted;
  r.crash_events = last.crash_events;
  r.recovery_events = last.recovery_events;
  r.commands_lost = last.commands_lost;
  r.commands_rebooting = last.commands_rebooting;
  r.transitions_failed = last.transitions_failed;
  r.transitions_partial = last.transitions_partial;
  r.reboot_events = last.reboot_events;
  r.commands_abandoned = last.commands_abandoned;
  r.commands_clamped = last.commands_clamped;
  r.ctrl_outages = last.ctrl_outages;
  r.ctrl_outage_cycles = last.ctrl_outage_cycles;
  r.ctrl_delayed_cycles = last.ctrl_delayed_cycles;
  r.ctrl_zone_outage_cycles = last.ctrl_zone_outage_cycles;
  r.predictor_overshoots = last.predictor_overshoots;
  r.predictor_misses = last.predictor_misses;
  r.predictive_elevations = last.predictive_elevations;
  r.watchdog_engagements = cl.watchdog().engagements();
  r.watchdog_transitions = cl.watchdog().failsafe_transitions();
  r.watchdog_adoptions =
      delta("pcap_watchdog_adoptions_total", base.adoptions);
  const std::size_t cycles = cl.recorder().size();
  r.mean_manager_utilization =
      cycles > 0 ? util_sum / static_cast<double>(cycles) : 0.0;
  r.transitions = transitions;
  r.p_low = last.p_low;
  r.p_high = last.p_high;
  r.metrics_prometheus = reg.prometheus_text();
  r.metrics_json = reg.json_snapshot();
  return r;
}

/// A_candidate as run_experiment picks it: the first candidate_count
/// controllable nodes, or all of them.
std::vector<hw::NodeId> candidate_set(const cluster::Cluster& cl,
                                      const cluster::ExperimentConfig& config) {
  std::vector<hw::NodeId> candidates = cl.controllable_nodes();
  if (config.candidate_count >= 0 &&
      static_cast<std::size_t>(config.candidate_count) < candidates.size()) {
    candidates.resize(static_cast<std::size_t>(config.candidate_count));
  }
  return candidates;
}

Staged run_staged(const cluster::ExperimentConfig& base, bool traced) {
  cluster::ExperimentConfig config = base;
  config.cluster.obs_timing = traced;
  Staged out;
  const std::uint64_t warnings_before = g_log_warnings.load();

  // 1. Provision calibration.
  auto t0 = Clock::now();
  Watts provision = config.provision;
  if (provision <= Watts{0.0}) {
    provision = cluster::probe_uncapped_peak(config.cluster,
                                             config.calibration_duration) *
                config.provision_fraction;
  }
  out.t.calibrate = seconds_since(t0);

  // 2. Cluster and manager.
  t0 = Clock::now();
  std::optional<cluster::Cluster> cl;
  cl.emplace(config.cluster);
  const std::vector<hw::NodeId> candidates = candidate_set(*cl, config);
  out.t.cluster = seconds_since(t0);
  t0 = Clock::now();
  std::unique_ptr<power::PowerManagerBase> manager =
      cluster::make_manager(config, config.cluster, provision, candidates);
  if (traced) manager = std::make_unique<TimedManager>(std::move(manager));
  cl->set_manager(std::move(manager));
  out.t.manager = seconds_since(t0);
  const TimedManager* wrapper =
      traced ? static_cast<const TimedManager*>(&cl->manager()) : nullptr;

  // 3. Training.
  t0 = Clock::now();
  if (config.training > Seconds{0.0}) cl->run(config.training);
  out.t.train = seconds_since(t0);

  // 4. Measured window.
  const CounterBase counter_base = read_counter_base(*cl);
  Probe before;
  if (wrapper != nullptr) before = read_probe(*cl, *wrapper);
  t0 = Clock::now();
  cl->start_recording();
  cl->run(config.measured);
  out.t.measure = seconds_since(t0);
  if (wrapper != nullptr) {
    Trace tr;
    tr.window = read_probe(*cl, *wrapper);
    for (auto& [key, value] : tr.window) value -= before[key];
    tr.cycles = wrapper->stats();
    tr.nodes = cl->nodes().size();
    const auto shards = wrapper->shards();
    for (const power::CappingManager* s : shards) {
      if (s->collector().dedup_active()) tr.dedup_active += 1.0;
    }
    tr.dedup_active =
        ratio(tr.dedup_active, static_cast<double>(shards.size()));
    out.trace = std::move(tr);
  }

  // 5. Metric extraction.
  t0 = Clock::now();
  out.result = extract(*cl, config, candidates.size(), provision, counter_base);
  out.t.extract = seconds_since(t0);

  t0 = Clock::now();
  cl.reset();
  out.t.teardown = seconds_since(t0);
  out.log_warnings = g_log_warnings.load() - warnings_before;
  return out;
}

/// Set-up only: Cluster construction through set_manager, torn down
/// untimed. Extra samples for the setup_s median.
double setup_once(const cluster::ExperimentConfig& config, Watts provision) {
  const auto t0 = Clock::now();
  cluster::Cluster cl(config.cluster);
  cl.set_manager(cluster::make_manager(config, config.cluster, provision,
                                       candidate_set(cl, config)));
  return seconds_since(t0);
}

// --------------------------------------------------------------------------
// Output checks.

std::string strip_phase_lines(const std::string& prom) {
  std::istringstream in(prom);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("pcap_cycle_phase_seconds") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// Names every simulated output that differs between a and b (doubles
/// compared bit for bit).
std::vector<std::string> differences(const cluster::ExperimentResult& a,
                                     const cluster::ExperimentResult& b) {
  std::vector<std::string> diff;
  const auto f = [&diff](const char* name, double x, double y) {
    if (std::bit_cast<std::uint64_t>(x) != std::bit_cast<std::uint64_t>(y)) {
      diff.emplace_back(name);
    }
  };
  const auto n = [&diff](const char* name, std::uint64_t x, std::uint64_t y) {
    if (x != y) diff.emplace_back(name);
  };
  f("p_max", a.p_max.value(), b.p_max.value());
  f("mean_power", a.mean_power.value(), b.mean_power.value());
  f("energy", a.energy.value(), b.energy.value());
  f("delta_pxt", a.delta_pxt, b.delta_pxt);
  f("provision", a.provision.value(), b.provision.value());
  f("p_low", a.p_low.value(), b.p_low.value());
  f("p_high", a.p_high.value(), b.p_high.value());
  f("performance", a.perf.performance, b.perf.performance);
  f("cplj", a.perf.lossless_fraction, b.perf.lossless_fraction);
  f("mean_slowdown", a.perf.mean_slowdown_percent,
    b.perf.mean_slowdown_percent);
  f("manager_utilization", a.mean_manager_utilization,
    b.mean_manager_utilization);
  n("finished_jobs", a.perf.finished_jobs, b.perf.finished_jobs);
  n("lossless_jobs", a.perf.lossless_jobs, b.perf.lossless_jobs);
  n("green_cycles", a.green_cycles, b.green_cycles);
  n("yellow_cycles", a.yellow_cycles, b.yellow_cycles);
  n("red_cycles", a.red_cycles, b.red_cycles);
  n("transitions", a.transitions, b.transitions);
  n("stale_node_cycles", a.stale_node_cycles, b.stale_node_cycles);
  n("fallback_node_cycles", a.fallback_node_cycles, b.fallback_node_cycles);
  n("skipped_targets", a.skipped_targets, b.skipped_targets);
  n("command_retries", a.command_retries, b.command_retries);
  n("divergences", a.divergences, b.divergences);
  n("heals", a.heals, b.heals);
  n("samples_lost", a.samples_lost, b.samples_lost);
  n("commands_lost", a.commands_lost, b.commands_lost);
  n("ctrl_outage_cycles", a.ctrl_outage_cycles, b.ctrl_outage_cycles);
  n("watchdog_transitions", a.watchdog_transitions, b.watchdog_transitions);
  n("watchdog_adoptions", a.watchdog_adoptions, b.watchdog_adoptions);
  if (strip_phase_lines(a.metrics_prometheus) !=
      strip_phase_lines(b.metrics_prometheus)) {
    diff.emplace_back("prometheus");
  }
  return diff;
}

/// Plausibility of one experiment's outputs on their own.
std::vector<std::string> implausible(const cluster::ExperimentResult& r) {
  std::vector<std::string> bad;
  if (!(std::isfinite(r.p_max.value()) && r.p_max.value() > 0.0)) {
    bad.emplace_back("p_max");
  }
  if (!(r.p_max >= r.mean_power)) bad.emplace_back("mean_power");
  if (!(r.energy.value() > 0.0)) bad.emplace_back("energy");
  if (!(r.delta_pxt >= 0.0)) bad.emplace_back("delta_pxt");
  if (!(r.perf.performance > 0.0 && r.perf.performance <= 1.0)) {
    bad.emplace_back("performance");
  }
  if (r.perf.finished_jobs == 0) bad.emplace_back("finished_jobs");
  if (!(r.p_low <= r.p_high)) bad.emplace_back("thresholds");
  if (r.green_cycles + r.yellow_cycles + r.red_cycles == 0) {
    bad.emplace_back("cycles");
  }
  return bad;
}

// --------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void emit(bool correct, std::size_t attempted, std::size_t failed,
          const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Highest of the usual tail percentiles with at least ten samples above.
std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double pct = 50.0;
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    if (n * (1.0 - p / 100.0) >= 10.0) pct = p;
  }
  const auto idx = static_cast<std::size_t>(
      std::min(n - 1.0, std::floor(pct / 100.0 * n)));
  return {pct, v[idx]};
}

/// Folds traced experiments into the per-layer metrics.
class LayerReport {
 public:
  void add(const Staged& timed, const Staged& traced) {
    const Trace& tr = *traced.trace;
    ++n_;
    timed_s_ += timed.t.total();
    traced_s_ += traced.t.total();
    for (std::size_t b = 0; b < kBands; ++b) {
      sum_["power.cycles." + std::string(kBandNames[b])] +=
          static_cast<double>(tr.cycles.cycles[b]);
      sum_["power.cycle_s." + std::string(kBandNames[b])] +=
          tr.cycles.seconds[b];
    }
    durations_.insert(durations_.end(), tr.cycles.durations.begin(),
                      tr.cycles.durations.end());
    std::uint64_t all_cycles = 0;
    for (const std::uint64_t c : tr.cycles.cycles) all_cycles += c;
    cycles_ += static_cast<double>(all_cycles);
    zones_active_ += static_cast<double>(tr.cycles.zones_active);
    sum_["power.green_degraded_cycles"] +=
        static_cast<double>(tr.cycles.green_degraded);

    const Probe& w = tr.window;
    for (const char* k :
         {"power.ctx_full_builds", "power.ctx_delta_builds",
          "power.ctx_noop_builds", "telemetry.samples_delivered"}) {
      sum_[k] += w.at(k);
    }
    for (const auto& [name, key] : kCounters) sum_[name] += w.at(name);
    dirty_slots_ += w.at("ctx_dirty_slots");
    delta_slots_ += w.at("ctx_delta_slots");
    dedup_ += tr.dedup_active;
    node_ticks_ += w.at("cluster.ticks") * static_cast<double>(tr.nodes);

    const double manager = w.at("manager_s");
    const double phases = w.at("span.collect") + w.at("span.context") +
                          w.at("span.policy") + w.at("span.actuate");
    sum_["telemetry.collect_s"] += w.at("span.collect");
    sum_["power.context_s"] += w.at("span.context");
    sum_["power.policy_s"] += w.at("span.policy");
    sum_["power.actuate_s"] += w.at("span.actuate");
    sum_["power.manager_s"] += manager;
    sum_["power.manager_self_s"] += manager - phases;
    sum_["hw.node_sweep_s"] += w.at("span.node_sweep");
    sum_["sched.launch_s"] += w.at("span.launch");
    sum_["workload.jobs_s"] += w.at("span.jobs");
    sum_["cluster.tick_s"] += w.at("span.tick");
    sum_["cluster.tick_self_s"] += w.at("span.tick") - w.at("span.node_sweep") -
                                   w.at("span.launch") - w.at("span.jobs") -
                                   manager;
    measure_s_ += traced.t.measure;
    tick_s_ += w.at("span.tick");

    sum_["cluster.calibrate_s"] += traced.t.calibrate;
    sum_["cluster.train_s"] += traced.t.train;
    sum_["cluster.measure_s"] += traced.t.measure;
    sum_["metrics.extract_s"] += traced.t.extract;
    cluster_setup_.push_back(traced.t.cluster);
    manager_setup_.push_back(traced.t.manager);
    sum_["common.log_warnings"] += static_cast<double>(traced.log_warnings);

    const cluster::ExperimentResult& r = traced.result;
    sum_["metrics.perf_cap"] += r.perf.performance;
    sum_["metrics.cplj"] += r.perf.lossless_fraction;
    sum_["metrics.delta_pxt"] += r.delta_pxt;
    sum_["metrics.p_max_w"] += r.p_max.value();
    sum_["metrics.red_cycles"] += static_cast<double>(r.red_cycles);
  }

  [[nodiscard]] std::vector<Metric> metrics(std::size_t attempted,
                                            std::size_t failed) const {
    const double n = static_cast<double>(n_);
    std::vector<Metric> out;
    const auto total = [this](const std::string& name) {
      const auto it = sum_.find(name);
      return it == sum_.end() ? 0.0 : it->second;
    };
    const auto mean = [&](const std::string& name, const char* unit) {
      out.push_back({name, ratio(total(name), n), unit});
    };
    for (const char* band : kBandNames) {
      mean(std::string("power.cycles.") + band, "count");
    }
    for (const char* band : kBandNames) {
      mean(std::string("power.cycle_s.") + band, "s");
    }
    const auto [pct, tail_s] = tail(durations_);
    out.push_back({"power.cycle_p50_us", median(durations_) * 1e6, "us"});
    out.push_back({"power.cycle_tail_us", tail_s * 1e6, "us"});
    out.push_back({"power.cycle_tail_pct", pct, "pct"});
    out.push_back(
        {"power.cycle_n", static_cast<double>(durations_.size()), "count"});
    mean("power.green_degraded_cycles", "count");
    mean("power.ctx_full_builds", "count");
    mean("power.ctx_delta_builds", "count");
    mean("power.ctx_noop_builds", "count");
    out.push_back(
        {"power.ctx_dirty_frac", ratio(dirty_slots_, delta_slots_), "ratio"});
    out.push_back(
        {"power.zones_active_mean", ratio(zones_active_, cycles_), "count"});
    out.push_back({"power.setup_s", median(manager_setup_), "s"});
    mean("telemetry.collect_s", "s");
    mean("power.context_s", "s");
    mean("power.policy_s", "s");
    mean("power.actuate_s", "s");
    mean("power.manager_s", "s");
    mean("power.manager_self_s", "s");
    out.push_back({"telemetry.dedup_active", ratio(dedup_, n), "ratio"});
    mean("telemetry.samples_delivered", "count");
    mean("telemetry.samples_lost", "count");
    mean("telemetry.samples_corrupted", "count");
    for (const char* k :
         {"power.targets", "power.transitions", "power.acks", "power.retries",
          "power.divergences", "power.heals", "power.abandoned",
          "hw.watchdog_transitions"}) {
      mean(k, "count");
    }
    mean("cluster.calibrate_s", "s");
    mean("cluster.train_s", "s");
    mean("cluster.measure_s", "s");
    out.push_back({"cluster.setup_s", median(cluster_setup_), "s"});
    mean("cluster.tick_s", "s");
    mean("cluster.tick_self_s", "s");
    mean("cluster.ticks", "count");
    mean("sim.events", "count");
    mean("hw.node_sweep_s", "s");
    mean("hw.node_refreshes", "count");
    out.push_back({"hw.refresh_frac",
                   ratio(total("hw.node_refreshes"), node_ticks_), "ratio"});
    mean("sched.launch_s", "s");
    mean("workload.jobs_s", "s");
    mean("sched.jobs_finished", "count");
    mean("metrics.extract_s", "s");
    mean("metrics.perf_cap", "ratio");
    mean("metrics.cplj", "ratio");
    mean("metrics.delta_pxt", "ratio");
    mean("metrics.p_max_w", "W");
    mean("metrics.red_cycles", "count");
    mean("common.log_warnings", "count");
    out.push_back({"obs.trace_overhead_frac",
                   ratio(traced_s_, timed_s_) - 1.0, "ratio"});
    out.push_back(
        {"unattributed_frac", 1.0 - ratio(tick_s_, measure_s_), "ratio"});
    out.push_back({"bench.experiments", n, "count"});
    out.push_back({"bench.failed_frac",
                   ratio(static_cast<double>(failed),
                         static_cast<double>(attempted)),
                   "ratio"});
    return out;
  }

 private:
  std::size_t n_ = 0;
  std::map<std::string, double> sum_;
  std::vector<double> durations_, cluster_setup_, manager_setup_;
  double timed_s_ = 0, traced_s_ = 0, cycles_ = 0, zones_active_ = 0;
  double dirty_slots_ = 0, delta_slots_ = 0, dedup_ = 0, node_ticks_ = 0;
  double measure_s_ = 0, tick_s_ = 0;
};

// --------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0)) {
        throw std::invalid_argument("--seconds must be > 0");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

/// Stop starting rounds past this much wall time, whatever --seconds says,
/// so a slow machine still finishes a run well inside three minutes.
constexpr double kWallLimitS = 100.0;

/// A fixed integer-and-memory kernel that runs none of the simulator's
/// code. Its fastest time in a run tracks how fast the shared machine is
/// during that run (clock rate, neighbours' load), independent of the
/// program under test.
double reference_kernel_s() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 19);  // 4 MiB
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  const auto t0 = Clock::now();
  for (int k = 0; k < 1000000; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[x & (table.size() - 1)];
    table[(x >> 20) & (table.size() - 1)] += acc;
  }
  const double dt = seconds_since(t0);
  table[0] ^= acc;  // keeps the loop's result observable
  return dt;
}

/// The kernel's fastest time on the machine the baselines were taken on
/// (4-vCPU 2.1 GHz Xeon VM). Host times are scaled by
/// kernel_best / kNominalKernelS, i.e. reported at that machine's speed.
constexpr double kNominalKernelS = 0.0038;

int run(const Args& args) {
  install_counting_log_sink();
  const Workload w = make_workload(args.workload, args.seed);
  const std::size_t n = w.round.size();
  const auto wall0 = Clock::now();

  // Warm-up and oracle in one: run_experiment on every experiment of the
  // round, untimed. Caches and the allocator settle before anything is
  // timed, and every staged run must reproduce these results.
  std::vector<cluster::ExperimentResult> reference;
  for (const cluster::ExperimentConfig& cfg : w.round) {
    reference.push_back(cluster::run_experiment(cfg));
  }

  std::size_t attempted = 0, failed = 0;
  const auto check = [&](std::size_t i, const cluster::ExperimentResult& r,
                         const char* run_kind) {
    std::vector<std::string> bad = differences(r, reference[i]);
    for (std::string& b : implausible(r)) bad.push_back("implausible " + b);
    if (bad.empty()) return true;
    std::string what;
    for (const std::string& b : bad) what += " " + b;
    std::fprintf(stderr, "e2ebench: %s experiment %zu (%s) differs:%s\n",
                 run_kind, i, w.round[i].manager.c_str(), what.c_str());
    return false;
  };

  // Whole rounds only, so every run measures the same experiment mix; stop
  // at the round count that lands nearest --seconds of pipeline time.
  double pipeline_s = 0.0;
  std::size_t rounds = 0;
  const auto another_round = [&] {
    if (rounds == 0) return true;
    const double per_round = pipeline_s / static_cast<double>(rounds);
    return pipeline_s + 0.5 * per_round < args.seconds &&
           seconds_since(wall0) < kWallLimitS;
  };
  std::vector<std::vector<Stages>> timed_stages(n);  ///< per round
  std::vector<double> setups, kernel_s;
  LayerReport layers;
  while (another_round()) {
    for (std::size_t i = 0; i < n; ++i) {
      ++attempted;
      try {
        bool ok = true;
        if (!args.trace) {
          const Staged timed = run_staged(w.round[i], false);
          pipeline_s += timed.t.total();
          timed_stages[i].push_back(timed.t);
          setups.push_back(timed.t.setup());
          // Set-up-only repetitions, spread over the run like the
          // experiments, so setup_s rests on many samples everywhere.
          for (int k = 0; k < 2; ++k) {
            setups.push_back(setup_once(w.round[i], reference[i].provision));
          }
          ok = check(i, timed.result, "timed");
        } else {
          // Alternate which variant runs first so neither always inherits
          // the other's warm caches.
          std::optional<Staged> timed;
          if (attempted % 2 == 0) timed = run_staged(w.round[i], false);
          const Staged traced = run_staged(w.round[i], true);
          if (!timed) timed = run_staged(w.round[i], false);
          pipeline_s += timed->t.total() + traced.t.total();
          ok = check(i, timed->result, "timed") &&
               check(i, traced.result, "traced");
          if (ok) layers.add(*timed, traced);
        }
        if (!ok) ++failed;
        for (int k = 0; k < 10; ++k) kernel_s.push_back(reference_kernel_s());
      } catch (const std::exception& e) {
        ++failed;
        std::fprintf(stderr, "e2ebench: experiment %zu threw: %s\n", i,
                     e.what());
      }
    }
    ++rounds;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Per experiment and stage, the fastest round: on a shared machine
    // other tenants only ever slow a stage down, for seconds at a time, so
    // the best round is the steadiest estimate of the program's own cost.
    double sim_s = 0.0, best_host_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (timed_stages[i].empty()) continue;
      sim_s += simulated_seconds(w.round[i]);
      best_host_s += fastest(timed_stages[i]).total();
    }
    const double rss_mb = peak_rss_mb();
    // Both times at nominal machine speed: a run that lands while the
    // shared host is slow is scaled back by the kernel's slowdown.
    const double host_scale = kernel_s.empty()
                                  ? 1.0
                                  : kNominalKernelS / *std::min_element(
                                                          kernel_s.begin(),
                                                          kernel_s.end());
    std::fprintf(stderr, "e2ebench: unscaled sim_speed %.1f, host scale %.3f\n",
                 ratio(sim_s, best_host_s), host_scale);
    metrics = {{"sim_speed", ratio(sim_s, best_host_s * host_scale), "sim_s/s"},
               {"setup_s", median(setups) * host_scale, "s"},
               {"peak_rss_mb", rss_mb, "MB"}};
  } else {
    metrics = layers.metrics(attempted, failed);
    metrics.push_back(
        {"host.kernel_ms",
         kernel_s.empty()
             ? 0.0
             : 1e3 * *std::min_element(kernel_s.begin(), kernel_s.end()),
         "ms"});
  }
  std::fprintf(stderr,
               "e2ebench: %s seed=%llu trace=%d rounds=%zu experiments=%zu "
               "wall=%.1fs\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               args.trace ? 1 : 0, rounds, attempted, seconds_since(wall0));
  emit(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
