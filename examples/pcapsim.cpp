// pcapsim — the declarative experiment driver.
//
//   pcapsim [--metrics=prom|json] [config.ini] [section.key=v1[,v2...]]...
//   pcapsim --print-config [config.ini] [section.key=value]...
//
// Runs the experiment an INI file describes (no file = the paper
// scenario) and prints the paper's metrics; --metrics appends the
// registry export (DESIGN.md §11). Each section.key=value overrides the
// file through the same loader. One key may take a comma-separated list:
// one table row per value, the rows run in parallel against one provision
// calibrated from the base config. --print-config prints every key with
// its effective value instead of running.
//
//   pcapsim examples/configs/quickstart.ini manager.policy=none,mpc,hri
//   pcapsim experiment.measured_h=3 manager.tg_cycles=1,10,40
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/config_loader.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
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

/// Runs one row per value of `sweep`. One probe of `base` calibrates
/// every row without an explicit provision: the row's P_Max is that
/// uncapped peak times its own provision_fraction, so rows that differ in
/// any other key are capped against the same P_Max.
void run_sweep(cluster::ExperimentConfig base, const Override& sweep,
               std::vector<cluster::ExperimentConfig> rows) {
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
  std::printf("sweeping '%s' over %zu values; P_Max = %.0f W\n\n",
              sweep.key.c_str(), rows.size(), base.provision.value());

  std::vector<cluster::ExperimentResult> results(rows.size());
  common::ThreadPool pool;
  pool.parallel_for(rows.size(), [&](std::size_t i) {
    results[i] = cluster::run_experiment(rows[i]);
  });

  metrics::Table table({sweep.key, "perf", "CPLJ", "P_max (W)", "dPxT",
                        "yellow (s)", "red (s)"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    table.cell(sweep.values[i])
        .cell(r.perf.performance, 4)
        .cell_percent(r.perf.lossless_fraction)
        .cell(r.p_max.value(), 0)
        .cell(r.delta_pxt, 5)
        .cell(r.yellow_cycles)
        .cell(r.red_cycles);
    table.end_row();
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  bool print_config = false;
  const char* metrics_mode = nullptr;
  const char* config_path = nullptr;
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

  // The file's keys, overlaid by every single-valued override; a swept key
  // is set per row on top of that.
  try {
    common::Config keys;
    if (config_path != nullptr) keys = common::Config::load_file(config_path);
    const Override* sweep = nullptr;
    for (const Override& o : overrides) {
      if (o.values.size() == 1) {
        keys.set(o.key, o.values.front());
      } else if (sweep != nullptr) {
        return fail("only one key may take several values (got '" +
                    sweep->key + "' and '" + o.key + "')");
      } else {
        sweep = &o;
      }
    }
    const cluster::ExperimentConfig cfg =
        cluster::apply_config(cluster::paper_scenario(), keys);

    if (print_config) {
      if (sweep != nullptr) {
        return fail("--print-config takes one value per key");
      }
      std::printf("%s", cluster::config_text(cfg).c_str());
      return 0;
    }
    if (sweep != nullptr) {
      if (metrics_mode != nullptr) {
        return fail("--metrics exports a single run, not a sweep");
      }
      std::vector<cluster::ExperimentConfig> rows;
      for (const std::string& v : sweep->values) {
        common::Config row = keys;
        row.set(sweep->key, v);
        rows.push_back(cluster::apply_config(cluster::paper_scenario(), row));
      }
      run_sweep(cfg, *sweep, std::move(rows));
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
