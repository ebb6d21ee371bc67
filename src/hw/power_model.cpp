#include "hw/power_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace pcap::hw {

void DevicePowerTable::validate() const {
  const std::size_t n = idle.size();
  if (n == 0) throw std::invalid_argument("DevicePowerTable: empty");
  if (cpu_dyn.size() != n || mem_dyn.size() != n || nic_dyn.size() != n) {
    throw std::invalid_argument("DevicePowerTable: ragged tables");
  }
  const auto non_negative = [](const std::vector<Watts>& v) {
    return std::all_of(v.begin(), v.end(),
                       [](Watts w) { return w >= Watts{0.0}; });
  };
  if (!non_negative(idle) || !non_negative(cpu_dyn) || !non_negative(mem_dyn) ||
      !non_negative(nic_dyn)) {
    throw std::invalid_argument("DevicePowerTable: negative entry");
  }
}

double OperatingPoint::nic_fraction() const {
  const double denom = tau.value() * nic_bandwidth;
  if (denom <= 0.0) return 0.0;
  return std::clamp(nic_bytes.value() / denom, 0.0, 1.0);
}

double OperatingPoint::mem_fraction() const {
  if (mem_total.value() <= 0.0) return 0.0;
  return std::clamp(mem_used / mem_total, 0.0, 1.0);
}

PowerModel::PowerModel(DevicePowerTable table) : table_(std::move(table)) {
  table_.validate();
}

Watts PowerModel::power(Level level, const OperatingPoint& op) const {
  if (level < 0 || level >= num_levels()) {
    throw std::out_of_range("PowerModel::power: bad level");
  }
  const auto l = static_cast<std::size_t>(level);
  const double uti = std::clamp(op.cpu_utilization, 0.0, 1.0);
  // Summed as static share + utilisation term, in exactly the order
  // NodeStatePool's cached two-piece evaluation uses, so both paths agree
  // to the bit.
  return table_.idle[l] + op.mem_fraction() * table_.mem_dyn[l] +
         op.nic_fraction() * table_.nic_dyn[l] + uti * table_.cpu_dyn[l];
}

Watts PowerModel::theoretical_max() const {
  const auto top = static_cast<std::size_t>(num_levels() - 1);
  return table_.idle[top] + table_.cpu_dyn[top] + table_.mem_dyn[top] +
         table_.nic_dyn[top];
}

DevicePowerTable make_scaled_table(const DvfsLadder& ladder, Watts idle_base,
                                   Watts idle_scaled, Watts cpu_dyn_max,
                                   Watts mem_dyn, Watts nic_dyn) {
  DevicePowerTable t;
  const int n = ladder.num_levels();
  t.idle.reserve(static_cast<std::size_t>(n));
  t.cpu_dyn.reserve(static_cast<std::size_t>(n));
  t.mem_dyn.assign(static_cast<std::size_t>(n), mem_dyn);
  t.nic_dyn.assign(static_cast<std::size_t>(n), nic_dyn);
  for (Level l = 0; l < n; ++l) {
    const double scale = ladder.power_scale(l);
    t.idle.push_back(idle_base + scale * idle_scaled);
    t.cpu_dyn.push_back(scale * cpu_dyn_max);
  }
  t.validate();
  return t;
}

}  // namespace pcap::hw
