// Shared plumbing for the figure-reproduction benches.
#pragma once

#include <cstdio>

#include "cluster/experiment.hpp"
#include "cluster/scenario.hpp"
#include "metrics/report.hpp"

namespace pcap::bench {

/// Calibrates the shared power provision once (it is a property of the
/// facility, not of the policy under test).
inline Watts calibrate_provision(const cluster::ExperimentConfig& cfg) {
  const Watts peak =
      cluster::probe_uncapped_peak(cfg.cluster, cfg.calibration_duration);
  return peak * cfg.provision_fraction;
}

inline void print_header(const char* title, const char* paper_claim) {
  std::printf("\n=== %s ===\n", title);
  std::printf("paper: %s\n\n", paper_claim);
}

}  // namespace pcap::bench
