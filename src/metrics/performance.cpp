#include "metrics/performance.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "common/logging.hpp"

namespace pcap::metrics {

std::vector<AppEnergySummary> summarize_by_app(
    const std::vector<JobRecord>& jobs) {
  // Accumulate into local sums and divide only when building the output:
  // an AppEnergySummary never holds a half-built sum in its mean_* fields,
  // whatever happens between accumulation and division.
  struct Accum {
    std::size_t jobs = 0;
    double energy_j = 0.0;
    double duration_s = 0.0;
    double slowdown_percent = 0.0;
  };
  std::map<std::string, Accum> by_app;
  for (const JobRecord& j : jobs) {
    Accum& a = by_app[j.app];
    ++a.jobs;
    a.energy_j += j.energy_j;
    a.duration_s += j.actual_s;
    a.slowdown_percent += j.slowdown_percent();
  }
  std::vector<AppEnergySummary> out;
  out.reserve(by_app.size());
  for (const auto& [name, a] : by_app) {
    const auto n = static_cast<double>(a.jobs);
    AppEnergySummary s;
    s.app = name;
    s.jobs = a.jobs;
    s.mean_energy_j = a.energy_j / n;
    s.mean_duration_s = a.duration_s / n;
    s.mean_slowdown_percent = a.slowdown_percent / n;
    out.push_back(std::move(s));
  }
  return out;
}

JobRecord make_record(const workload::Job& job) {
  if (job.state() != workload::JobState::kFinished) {
    throw std::invalid_argument("make_record: job not finished");
  }
  JobRecord r;
  r.id = job.id();
  r.app = job.app().name;
  r.nprocs = job.nprocs();
  r.baseline_s = job.baseline_duration().value();
  r.actual_s = job.actual_duration().value();
  r.privileged = job.privileged();
  return r;
}

PerformanceSummary summarize_performance(const std::vector<JobRecord>& jobs,
                                         double lossless_tolerance) {
  if (lossless_tolerance < 0.0) {
    throw std::invalid_argument("summarize_performance: negative tolerance");
  }
  PerformanceSummary s;
  s.finished_jobs = jobs.size();
  if (jobs.empty()) return s;

  double ratio_sum = 0.0;
  double slowdown_sum = 0.0;
  double worst = 0.0;
  std::size_t lossless = 0;
  std::size_t zero_duration = 0;
  for (const JobRecord& j : jobs) {
    if (j.actual_s <= 0.0) {
      // A job whose capped duration interpolated to (or below) zero within
      // one tick finished at least as fast as its baseline: speed_ratio()
      // would degenerate to 0 and drag Performance(cap) toward 0, so count
      // it as lossless with ratio 1 and zero slowdown instead.
      ++zero_duration;
      ratio_sum += 1.0;
      ++lossless;
      continue;
    }
    ratio_sum += j.speed_ratio();
    const double slowdown = j.slowdown_percent();
    slowdown_sum += slowdown;
    worst = std::max(worst, slowdown);
    if (j.actual_s <= j.baseline_s * (1.0 + lossless_tolerance)) {
      ++lossless;
    }
  }
  if (zero_duration > 0) {
    PCAP_WARN("summarize_performance: %zu zero-duration job(s) counted as "
              "lossless (ratio 1.0)",
              zero_duration);
  }
  const auto n = static_cast<double>(jobs.size());
  s.zero_duration_jobs = zero_duration;
  s.performance = ratio_sum / n;
  s.lossless_jobs = lossless;
  s.lossless_fraction = static_cast<double>(lossless) / n;
  s.mean_slowdown_percent = slowdown_sum / n;
  s.worst_slowdown_percent = worst;
  return s;
}

}  // namespace pcap::metrics
