// Application behaviour model: a repeating iteration of phases plus a
// strong-scaling law that turns (class, nprocs) into a full-speed duration.
#pragma once

#include <string>
#include <vector>

#include "workload/phase.hpp"

namespace pcap::workload {

struct AppModel {
  std::string name;

  /// One-off start-up phases (initialisation, data generation, warm-up)
  /// executed before the main loop. Real codes spend their first minute
  /// or two well below peak power, which is what makes machine-wide power
  /// onset gradual rather than step-like.
  std::vector<Phase> prologue;

  /// One iteration of the application's main loop; cycled until the job's
  /// full-speed duration is exhausted.
  std::vector<Phase> iteration;

  /// Full-speed duration at the reference process count (seconds).
  double reference_duration_s = 600.0;
  int reference_nprocs = 64;

  /// Strong-scaling exponent: T(n) = T_ref * (ref_nprocs / n)^alpha.
  /// alpha = 1 is perfect scaling; < 1 reflects parallel inefficiency.
  double scaling_alpha = 0.9;

  /// Seconds of one full iteration at full speed.
  [[nodiscard]] double iteration_seconds() const;

  /// Full-speed duration for an nprocs-process run of this application.
  [[nodiscard]] double duration_at(int nprocs) const;

  /// The phase active after `progress` seconds of full-speed execution
  /// (progress is folded into the iteration cycle).
  [[nodiscard]] const Phase& phase_at(double progress_seconds) const;

  /// Validates all phases and scaling parameters.
  void validate() const;
};

}  // namespace pcap::workload
