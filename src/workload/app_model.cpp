#include "workload/app_model.hpp"

#include <cmath>
#include <stdexcept>

namespace pcap::workload {

double AppModel::iteration_seconds() const {
  double total = 0.0;
  for (const Phase& p : iteration) total += p.seconds_per_iteration;
  return total;
}

double AppModel::duration_at(int nprocs) const {
  if (nprocs <= 0) {
    throw std::invalid_argument("AppModel::duration_at: nprocs <= 0");
  }
  const double ratio =
      static_cast<double>(reference_nprocs) / static_cast<double>(nprocs);
  return reference_duration_s * std::pow(ratio, scaling_alpha);
}

const Phase& AppModel::phase_at(double progress_seconds) const {
  if (iteration.empty()) {
    throw std::logic_error("AppModel::phase_at: no phases");
  }
  if (progress_seconds < 0.0) progress_seconds = 0.0;
  // One-off prologue first.
  for (const Phase& p : prologue) {
    if (progress_seconds < p.seconds_per_iteration) return p;
    progress_seconds -= p.seconds_per_iteration;
  }
  const double iter = iteration_seconds();
  // progress - iter * floor(progress / iter): cheaper than fmod, and this
  // runs once per running job per tick.
  double within = progress_seconds - iter * std::floor(progress_seconds / iter);
  if (within < 0.0) within = 0.0;
  for (const Phase& p : iteration) {
    if (within < p.seconds_per_iteration) return p;
    within -= p.seconds_per_iteration;
  }
  return iteration.back();  // numerical edge: exactly at the boundary
}

void AppModel::validate() const {
  if (name.empty()) throw std::invalid_argument("AppModel: empty name");
  if (iteration.empty()) throw std::invalid_argument("AppModel: no phases");
  for (const Phase& p : prologue) validate_phase(p);
  for (const Phase& p : iteration) validate_phase(p);
  if (reference_duration_s <= 0.0) {
    throw std::invalid_argument("AppModel: non-positive duration");
  }
  if (reference_nprocs <= 0) {
    throw std::invalid_argument("AppModel: non-positive reference nprocs");
  }
  if (scaling_alpha <= 0.0 || scaling_alpha > 1.5) {
    throw std::invalid_argument("AppModel: implausible scaling alpha");
  }
}

}  // namespace pcap::workload
