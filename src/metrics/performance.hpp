// Performance metrics over finished jobs (§V.C):
//
//   Performance(cap) = (1/J) * sum_j T_j / T_cap,j
//
// where T_j is the job's full-speed (uncapped) duration and T_cap,j its
// duration under the capping policy. CPLJ counts jobs whose capped time
// equals their uncapped time (within a tolerance: the simulation advances
// in discrete ticks and finish times interpolate inside a tick).
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "workload/job.hpp"

namespace pcap::metrics {

struct JobRecord {
  workload::JobId id = 0;
  std::string app;
  int nprocs = 0;
  double baseline_s = 0.0;  ///< T_j
  double actual_s = 0.0;    ///< T_cap,j
  double energy_j = 0.0;    ///< energy attributed to the job's nodes
  bool privileged = false;

  /// T_j / T_cap,j; degenerates to 0 when actual_s <= 0 — callers that
  /// aggregate (summarize_performance) treat such jobs as lossless
  /// (ratio 1) instead.
  [[nodiscard]] double speed_ratio() const {
    return actual_s > 0.0 ? baseline_s / actual_s : 0.0;
  }
  [[nodiscard]] double slowdown_percent() const {
    return baseline_s > 0.0 ? (actual_s / baseline_s - 1.0) * 100.0 : 0.0;
  }
};

/// Per-application aggregation of finished-job records.
struct AppEnergySummary {
  std::string app;
  std::size_t jobs = 0;
  double mean_energy_j = 0.0;
  double mean_duration_s = 0.0;
  double mean_slowdown_percent = 0.0;
};

/// Groups records by application name (sorted by name).
std::vector<AppEnergySummary> summarize_by_app(
    const std::vector<JobRecord>& jobs);

/// Extracts a record from a finished job. Throws if not finished.
JobRecord make_record(const workload::Job& job);

struct PerformanceSummary {
  std::size_t finished_jobs = 0;
  double performance = 1.0;       ///< Performance(cap), in (0, 1]
  std::size_t lossless_jobs = 0;  ///< CPLJ
  double lossless_fraction = 1.0;
  double mean_slowdown_percent = 0.0;
  double worst_slowdown_percent = 0.0;
  /// Jobs with actual_s <= 0 (finished within one tick-interpolation),
  /// counted as lossless with ratio 1.0 and a logged warning.
  std::size_t zero_duration_jobs = 0;
};

/// `lossless_tolerance` is the relative slack under which a job counts as
/// performance-lossless (default 0.5%: within measurement granularity).
PerformanceSummary summarize_performance(const std::vector<JobRecord>& jobs,
                                         double lossless_tolerance = 0.005);

}  // namespace pcap::metrics
