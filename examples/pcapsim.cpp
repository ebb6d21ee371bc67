// pcapsim — the declarative experiment driver.
//
//   pcapsim [--metrics=prom|json] [config.ini] [section.key=v1[,v2...]]...
//   pcapsim [--seeds=S1,S2,...] [config.ini] [section.key=v1,v2,...]...
//   pcapsim --print-config [config.ini] [section.key=value]...
//
// Runs the experiment an INI file describes (no file = the paper
// scenario) and prints the paper's metrics; --metrics appends the
// registry export (DESIGN.md §11). Each section.key=value overrides the
// file through the same loader. A key given a comma-separated list is
// swept: several swept lists must have one length and are zipped, row i
// taking value i of each. The rows, plus a manager.policy=none baseline
// on the base config, run in parallel against one provision calibrated
// from the base config; the table prints each row's absolute metrics and
// its P_max and ΔP×T reductions against the baseline. --seeds averages
// every row (and the baseline) over those seeds; the calibration keeps
// the base config's cluster.seed. --print-config prints every key with
// its effective value instead of running.
//
//   pcapsim examples/configs/quickstart.ini manager.policy=none,mpc,hri
//   pcapsim experiment.measured_h=3 manager.tg_cycles=1,10,40
//   pcapsim --seeds=42,1234 manager.policy=mpc,hri cluster.control_period_s=1,4
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/config_loader.hpp"
#include "common/string_util.hpp"
#include "cluster/scenario.hpp"
#include "metrics/report.hpp"

namespace {

using namespace pcap;

int fail(const std::string& message) {
  std::fprintf(stderr, "pcapsim: %s\n", message.c_str());
  return 1;
}

/// One `section.key=v1[,v2...]` command-line override.
struct Override {
  std::string key;
  std::vector<std::string> values;
};

void print_report(const cluster::ExperimentResult& r) {
  metrics::Table table({"metric", "value"});
  table.cell("manager").cell(r.manager);
  table.end_row();
  table.cell("|A_candidate|").cell(r.candidate_count);
  table.end_row();
  table.cell("finished jobs").cell(r.perf.finished_jobs);
  table.end_row();
  table.cell("Performance(cap)").cell(r.perf.performance, 4);
  table.end_row();
  table.cell("CPLJ").cell_percent(r.perf.lossless_fraction);
  table.end_row();
  table.cell("mean slowdown").cell_percent(
      r.perf.mean_slowdown_percent / 100.0);
  table.end_row();
  table.cell("P_Max (provision, W)").cell(r.provision.value(), 0);
  table.end_row();
  table.cell("P_max observed (W)").cell(r.p_max.value(), 0);
  table.end_row();
  table.cell("mean power (W)").cell(r.mean_power.value(), 0);
  table.end_row();
  table.cell("energy (MJ)").cell(r.energy.value() / 1e6, 1);
  table.end_row();
  table.cell("dPxT").cell(r.delta_pxt, 5);
  table.end_row();
  table.cell("P_L / P_H (W)").cell(common::strprintf(
      "%.0f / %.0f", r.p_low.value(), r.p_high.value()));
  table.end_row();
  table.cell("green/yellow/red (s)").cell(common::strprintf(
      "%zu / %zu / %zu", r.green_cycles, r.yellow_cycles, r.red_cycles));
  table.end_row();
  table.cell("never red").cell(r.never_red ? "yes" : "no");
  table.end_row();
  table.cell("DVFS transitions").cell(r.transitions);
  table.end_row();
  table.print();
}

/// Parses the list of --seeds=S1,S2,...; empty if any entry is not an
/// unsigned integer.
std::vector<std::uint64_t> parse_seeds(const std::string& list) {
  std::vector<std::uint64_t> seeds;
  for (const std::string& entry : common::split(list, ',')) {
    const std::string_view v = common::trim(entry);
    std::uint64_t seed = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), seed);
    if (v.empty() || ec != std::errc() || end != v.data() + v.size()) return {};
    seeds.push_back(seed);
  }
  return seeds;
}

/// Runs the zipped `rows` and a manager.policy=none baseline on `base`,
/// each averaged over `seeds`, and prints one table row per sweep index.
/// One probe of `base` calibrates every config without an explicit
/// provision: a row's P_Max is that uncapped peak times its own
/// provision_fraction, so rows that differ in any other key are capped
/// against the same P_Max.
void run_sweep(cluster::ExperimentConfig base,
               const std::vector<const Override*>& sweeps,
               std::vector<cluster::ExperimentConfig> rows,
               const std::vector<std::uint64_t>& seeds) {
  cluster::ExperimentConfig none = base;
  none.manager = "none";
  // Zones and control-plane faults shape only a capping manager; clearing
  // them lets the baseline run uncapped on any base config.
  none.zone_count = 1;
  none.control = {};
  rows.push_back(none);

  const auto uncalibrated = [](const cluster::ExperimentConfig& c) {
    return c.provision <= Watts{0.0};
  };
  Watts peak{0.0};
  if (uncalibrated(base) ||
      std::any_of(rows.begin(), rows.end(), uncalibrated)) {
    peak = cluster::probe_uncapped_peak(base.cluster,
                                        base.calibration_duration);
  }
  const auto calibrate = [&](cluster::ExperimentConfig& c) {
    if (uncalibrated(c)) c.provision = peak * c.provision_fraction;
  };
  calibrate(base);
  std::for_each(rows.begin(), rows.end(), calibrate);

  std::vector<std::string> header;
  for (const Override* o : sweeps) header.push_back(o->key);
  std::printf("sweeping %s over %zu rows x %zu seeds; P_Max = %.0f W\n\n",
              common::join(header, ", ").c_str(), rows.size() - 1,
              std::max<std::size_t>(seeds.size(), 1), base.provision.value());

  const std::vector<cluster::AveragedResult> results =
      cluster::average_over_seeds(rows, seeds);
  const cluster::AveragedResult& baseline = results.back();
  header.insert(header.end(),
                {"row P_Max (W)", "perf", "CPLJ", "P_max (W)",
                 "P_max vs none", "dPxT", "dPxT reduction", "yellow (s)",
                 "red (s)", "mgr util"});
  metrics::Table table(header);
  for (std::size_t i = 0; i + 1 < results.size(); ++i) {
    const cluster::AveragedResult& r = results[i];
    for (const Override* o : sweeps) table.cell(o->values[i]);
    table.cell(rows[i].provision.value(), 0)
        .cell(r.performance, 4)
        .cell_percent(r.lossless_fraction)
        .cell(r.p_max_w, 0)
        .cell_percent(1.0 - r.p_max_w / baseline.p_max_w)
        .cell(r.delta_pxt, 5)
        .cell_percent(baseline.delta_pxt > 0.0
                          ? 1.0 - r.delta_pxt / baseline.delta_pxt
                          : 0.0)
        .cell(r.yellow_s, 0)
        .cell(r.red_s, 0)
        .cell_percent(r.manager_utilization, 3);
    table.end_row();
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  bool print_config = false;
  const char* metrics_mode = nullptr;
  const char* config_path = nullptr;
  std::vector<std::uint64_t> seeds;
  std::vector<Override> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg == "--print-config") {
      print_config = true;
    } else if (common::starts_with(arg, "--metrics=")) {
      metrics_mode = argv[i] + 10;
      if (std::strcmp(metrics_mode, "prom") != 0 &&
          std::strcmp(metrics_mode, "json") != 0) {
        return fail("--metrics wants prom or json");
      }
    } else if (common::starts_with(arg, "--seeds=")) {
      seeds = parse_seeds(arg.substr(8));
      if (seeds.empty()) {
        return fail("malformed '" + arg + "' (want --seeds=S1,S2,...)");
      }
    } else if (eq != std::string::npos) {
      const std::string key(common::trim(arg.substr(0, eq)));
      if (key.empty()) {
        return fail("malformed override '" + arg +
                    "' (want section.key=value)");
      }
      Override o{key, {}};
      for (const std::string& v : common::split(arg.substr(eq + 1), ',')) {
        o.values.emplace_back(common::trim(v));
      }
      overrides.push_back(std::move(o));
    } else if (config_path != nullptr) {
      return fail(std::string("one config file only (got '") + config_path +
                  "' and '" + arg + "')");
    } else {
      config_path = argv[i];
    }
  }

  // The file's keys, overlaid by every single-valued override; the swept
  // keys are set per row on top of that.
  try {
    common::Config keys;
    if (config_path != nullptr) keys = common::Config::load_file(config_path);
    std::vector<const Override*> sweeps;
    for (const Override& o : overrides) {
      if (o.values.size() == 1) {
        keys.set(o.key, o.values.front());
      } else if (!sweeps.empty() &&
                 o.values.size() != sweeps.front()->values.size()) {
        return fail("swept lists differ in length ('" + sweeps.front()->key +
                    "' has " + std::to_string(sweeps.front()->values.size()) +
                    " values, '" + o.key + "' has " +
                    std::to_string(o.values.size()) + ")");
      } else {
        sweeps.push_back(&o);
      }
    }
    const cluster::ExperimentConfig cfg =
        cluster::apply_config(cluster::paper_scenario(), keys);

    if (!seeds.empty()) {
      if (sweeps.empty()) {
        return fail("--seeds averages the rows of a sweep; give a key "
                    "several values");
      }
      if (std::any_of(sweeps.begin(), sweeps.end(), [](const Override* o) {
            return o->key == "cluster.seed";
          })) {
        return fail("--seeds sets cluster.seed; do not sweep it as well");
      }
    }
    if (print_config) {
      if (!sweeps.empty()) {
        return fail("--print-config takes one value per key");
      }
      std::printf("%s", cluster::config_text(cfg).c_str());
      return 0;
    }
    if (!sweeps.empty()) {
      if (metrics_mode != nullptr) {
        return fail("--metrics exports a single run, not a sweep");
      }
      std::vector<cluster::ExperimentConfig> rows;
      for (std::size_t i = 0; i < sweeps.front()->values.size(); ++i) {
        common::Config row = keys;
        for (const Override* o : sweeps) row.set(o->key, o->values[i]);
        rows.push_back(cluster::apply_config(cluster::paper_scenario(), row));
      }
      run_sweep(cfg, sweeps, std::move(rows), seeds);
      return 0;
    }

    std::printf("pcapsim: %zu nodes, policy %s, training %.1f h, measured "
                "%.1f h, seed %llu\n",
                cfg.cluster.num_nodes ? cfg.cluster.num_nodes
                                      : cfg.cluster.node_specs.size(),
                cfg.manager.c_str(), cfg.training.value() / 3600.0,
                cfg.measured.value() / 3600.0,
                static_cast<unsigned long long>(cfg.cluster.seed));
    const cluster::ExperimentResult r = cluster::run_experiment(cfg);
    print_report(r);
    if (metrics_mode != nullptr) {
      std::printf("\n%s", std::strcmp(metrics_mode, "prom") == 0
                              ? r.metrics_prometheus.c_str()
                              : r.metrics_json.c_str());
    }
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  return 0;
}
