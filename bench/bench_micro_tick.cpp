// Ticks/second of the full Cluster::tick hot path — workload refresh,
// thermal advance, metering, and the capping control cycle (no training
// delay, so Algorithm 1 runs from the first control period).
//
// Usage: bench_micro_tick [--json] [--obs=on|off] [--quiesce=on|off]
//                         [--verify] [node_count...]
//   default node counts: 128 1024 8192 32768
//
// Each population is measured twice: serial (worker_threads = 1) and
// parallel (worker_threads = hardware concurrency; populations below the
// parallel threshold still run serial by design). Results land in
// BENCH_tick.json at the repo root when they change materially.
//
// --quiesce=off disables event-driven quiescence (ClusterConfig::
// event_driven_ticks): every node is swept every tick, the pre-quiescence
// behaviour. The A/B pair prices the fast-forward machinery and is the
// denominator for the quiescence speedup recorded in BENCH_tick.json.
//
// --verify runs each population four ways — {serial, parallel} x
// {quiescence on, off} — with trace recording on, folds every cycle point
// (meter power, state, targets, transitions, reconciler counters), every
// finished job's energy attribution and every candidate's newest held
// telemetry sample (cycle, estimated power, level, busy) into an FNV-1a
// digest, and fails (exit 1) unless all four digests are bit-identical.
// This is the CI determinism gate for the event-driven tick path.
//
// --obs=off disables the cycle-phase span timers (ClusterConfig::
// obs_timing); counters and gauges stay live either way. Pairing an
// --obs=on run against an --obs=off run (scripts/check_bench_regression.py
// --ab) prices the full instrumentation, which must stay under 2% of tick
// throughput. --json emits one machine-readable array for that script.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "hw/node_spec.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"

using namespace pcap;

namespace {

struct Case {
  std::size_t nodes;
  int warm;     // warm-up ticks (thresholds frozen, queue primed)
  int measure;  // measured ticks
};

cluster::Cluster make_cluster(std::size_t nodes, std::size_t worker_threads,
                              bool obs_timing, bool quiesce) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.spec = hw::tianhe1a_node_spec();
  cfg.tick = Seconds{1.0};
  cfg.control_period = Seconds{4.0};
  cfg.seed = 1234;
  cfg.scheduler.max_procs_per_node = 3;
  cfg.worker_threads = worker_threads;
  cfg.obs_timing = obs_timing;
  cfg.event_driven_ticks = quiesce;
  return cluster::Cluster(cfg);
}

const power::ZoneTreeManager& attach_manager(cluster::Cluster& cl) {
  power::CappingManagerParams p;
  p.thresholds.provision = cl.theoretical_peak() * 0.9;
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.cycle_period = Seconds{4.0};
  auto mgr = std::make_unique<power::ZoneTreeManager>(
      power::ZoneTreeParams{}, p, [] { return power::make_policy("mpc"); },
      common::Rng(1234u ^ 0x9d2c5680u));
  mgr->set_candidate_set(cl.controllable_nodes());
  const power::ZoneTreeManager& tree = *mgr;
  cl.set_manager(std::move(mgr));
  return tree;
}

double run_case(const Case& c, std::size_t worker_threads, bool obs_timing,
                bool quiesce) {
  cluster::Cluster cl =
      make_cluster(c.nodes, worker_threads, obs_timing, quiesce);
  attach_manager(cl);

  cl.run(Seconds{static_cast<double>(c.warm)});
  const auto t0 = std::chrono::steady_clock::now();
  cl.run(Seconds{static_cast<double>(c.measure)});
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  if (std::getenv("PCAP_BENCH_SPANS") != nullptr) {
    // Phase breakdown for perf triage: every pcap_cycle_phase_seconds
    // span the run accumulated (tick, node_sweep, manager phases).
    const std::string text = cl.metrics().prometheus_text();
    for (const char* key :
         {"pcap_cycle_phase_seconds_sum", "pcap_cluster_jobs_finished_total",
          "pcap_cluster_node_refreshes_total", "pcap_cluster_running_jobs"}) {
      std::size_t pos = 0;
      while ((pos = text.find(key, pos)) != std::string::npos) {
        const std::size_t eol = text.find('\n', pos);
        std::fprintf(stderr, "  %s\n", text.substr(pos, eol - pos).c_str());
        pos = eol;
      }
    }
  }
  return c.measure / secs;
}

// -- determinism verification -------------------------------------------------

std::uint64_t fnv_mix(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// One full recorded run, folded to a digest: every control-cycle point
/// (meter reading, band, state, actuation and reconciler counters), every
/// finished job's identity and attributed energy, and every candidate's
/// newest held telemetry sample. Bit-identical trajectories — the
/// tentpole determinism requirement — give bit-identical digests; a
/// single ULP of drift anywhere does not.
std::uint64_t digest_run(const Case& c, std::size_t worker_threads,
                         bool quiesce) {
  cluster::Cluster cl = make_cluster(c.nodes, worker_threads, false, quiesce);
  const power::ZoneTreeManager& tree = attach_manager(cl);
  cl.start_recording();
  cl.run(Seconds{static_cast<double>(c.warm + c.measure)});

  std::uint64_t h = 1469598103934665603ull;
  for (const metrics::CyclePoint& pt : cl.recorder().points()) {
    h = fnv_mix(h, &pt.time_s, sizeof(pt.time_s));
    h = fnv_mix(h, &pt.power_w, sizeof(pt.power_w));
    h = fnv_mix(h, &pt.p_low_w, sizeof(pt.p_low_w));
    h = fnv_mix(h, &pt.p_high_w, sizeof(pt.p_high_w));
    h = fnv_mix(h, &pt.state, sizeof(pt.state));
    const std::uint64_t counters[] = {
        pt.running_jobs, pt.targets,    pt.transitions, pt.stale_nodes,
        pt.fallback_nodes, pt.skipped_targets, pt.retries, pt.divergences,
        pt.heals};
    h = fnv_mix(h, counters, sizeof(counters));
  }
  for (const metrics::JobRecord& r : cl.finished_records()) {
    const std::uint64_t id = r.id;
    h = fnv_mix(h, &id, sizeof(id));
    h = fnv_mix(h, &r.energy_j, sizeof(r.energy_j));
    h = fnv_mix(h, &r.actual_s, sizeof(r.actual_s));
  }
  // The telemetry the controller last acted on. Meter readings and
  // counters move only when a decision does, so agent noise that shifts
  // no decision shows up here alone.
  for (std::size_t z = 0; z < tree.zone_count(); ++z) {
    const telemetry::Collector& col = tree.zone(z).collector();
    for (const hw::NodeId id : col.candidate_set()) {
      const auto s = col.latest(id);
      if (!s) continue;
      const double est = s->estimated_power.value();
      const std::int64_t fields[] = {id, static_cast<std::int64_t>(s->cycle),
                                     s->level, s->busy ? 1 : 0};
      h = fnv_mix(h, fields, sizeof(fields));
      h = fnv_mix(h, &est, sizeof(est));
    }
  }
  return h;
}

int verify_case(const Case& c) {
  struct Variant {
    const char* name;
    std::size_t workers;
    bool quiesce;
  };
  const Variant variants[] = {{"serial/quiesce-on", 1, true},
                              {"serial/quiesce-off", 1, false},
                              {"parallel/quiesce-on", 0, true},
                              {"parallel/quiesce-off", 0, false}};
  std::uint64_t ref = 0;
  bool ok = true;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t h = digest_run(c, variants[i].workers,
                                       variants[i].quiesce);
    if (i == 0) ref = h;
    const bool match = h == ref;
    ok &= match;
    std::printf("  %-20s digest %016llx  %s\n", variants[i].name,
                static_cast<unsigned long long>(h), match ? "ok" : "MISMATCH");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Case> cases = {
      {128, 60, 20000}, {1024, 40, 4000}, {8192, 20, 600}, {32768, 40, 600}};
  bool json = false;
  bool obs_timing = true;
  bool quiesce = true;
  bool verify = false;
  std::vector<char*> size_args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--obs=on") == 0) {
      obs_timing = true;
    } else if (std::strcmp(argv[i], "--obs=off") == 0) {
      obs_timing = false;
    } else if (std::strcmp(argv[i], "--quiesce=on") == 0) {
      quiesce = true;
    } else if (std::strcmp(argv[i], "--quiesce=off") == 0) {
      quiesce = false;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else {
      size_args.push_back(argv[i]);
    }
  }
  if (!size_args.empty()) {
    std::vector<Case> chosen;
    for (char* arg : size_args) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(arg, &end, 10);
      if (end == arg || *end != '\0' || parsed == 0 ||
          parsed > 10'000'000ULL || arg[0] == '-') {
        std::fprintf(stderr,
                     "bench_micro_tick: bad node count '%s' "
                     "(expected a positive integer <= 10000000)\n",
                     arg);
        return 2;
      }
      const auto want = static_cast<std::size_t>(parsed);
      bool found = false;
      for (const Case& c : cases) {
        if (c.nodes == want) {
          chosen.push_back(c);
          found = true;
        }
      }
      if (!found) {
        // Unlisted size: scale the tick budget to roughly constant work.
        const int measure =
            std::max(50, static_cast<int>(4'000'000 / std::max<std::size_t>(
                                                          want, 1)));
        chosen.push_back(Case{want, 10, measure});
      }
    }
    cases = std::move(chosen);
  }

  if (verify) {
    int rc = 0;
    for (const Case& c : cases) {
      std::printf("verify %zu nodes (%d ticks):\n", c.nodes,
                  c.warm + c.measure);
      rc |= verify_case(c);
    }
    std::printf(rc == 0 ? "verify: all digests identical\n"
                        : "verify: DIGEST MISMATCH\n");
    return rc;
  }

  if (json) {
    std::printf("[");
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      const double serial = run_case(c, 1, obs_timing, quiesce);
      const double parallel = run_case(c, 0, obs_timing, quiesce);
      std::printf("%s\n  {\"nodes\": %zu, \"serial_ticks_per_s\": %.2f, "
                  "\"parallel_ticks_per_s\": %.2f}",
                  i == 0 ? "" : ",", c.nodes, serial, parallel);
    }
    std::printf("\n]\n");
    return 0;
  }

  std::printf("%8s  %14s  %14s   (obs %s, quiesce %s)\n", "nodes",
              "serial t/s", "parallel t/s", obs_timing ? "on" : "off",
              quiesce ? "on" : "off");
  for (const Case& c : cases) {
    const double serial = run_case(c, 1, obs_timing, quiesce);
    const double parallel = run_case(c, 0, obs_timing, quiesce);
    std::printf("%8zu  %14.2f  %14.2f\n", c.nodes, serial, parallel);
    std::fflush(stdout);
  }
  return 0;
}
