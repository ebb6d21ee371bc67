#include "metrics/power_metrics.hpp"

#include <algorithm>

namespace pcap::metrics {

Watts peak_power(const PowerTrace& trace) {
  if (trace.empty()) return Watts{0.0};
  return Watts{*std::max_element(trace.watts.begin(), trace.watts.end())};
}

Watts mean_power(const PowerTrace& trace) {
  if (trace.empty()) return Watts{0.0};
  double sum = 0.0;
  for (const double w : trace.watts) sum += w;
  return Watts{sum / static_cast<double>(trace.size())};
}

Joules total_energy(const PowerTrace& trace) {
  return mean_power(trace) * trace.duration();
}

Joules overspent_energy(const PowerTrace& trace, Watts threshold) {
  double over = 0.0;
  for (const double w : trace.watts) {
    over += std::max(0.0, w - threshold.value());
  }
  return Joules{over * trace.dt.value()};
}

double accumulated_overspend(const PowerTrace& trace, Watts threshold) {
  const Joules total = total_energy(trace);
  if (total <= Joules{0.0}) return 0.0;
  return overspent_energy(trace, threshold) / total;
}

}  // namespace pcap::metrics
