#include "hw/node_pool.hpp"

#include <algorithm>
#include <cmath>

namespace pcap::hw {

NodeStatePool::NodeStatePool(std::size_t n)
    : spec_(n, nullptr),
      level_(n, 0),
      relative_speed_(n, 1.0),
      variation_(n, 1.0),
      busy_(n, 0),
      cpu_utilization_(n, 0.0),
      mem_used_(n, 0.0),
      mem_total_(n, 1.0),
      nic_bytes_(n, 0.0),
      tau_s_(n, 1.0),
      nic_bandwidth_(n, 1.0),
      temperature_c_(n, 0.0),
      thermal_time_s_(n, 0.0),
      th_dt_a_(n, -1.0),
      th_decay_a_(n, 1.0),
      th_dt_b_(n, -1.0),
      th_decay_b_(n, 1.0),
      th_dt_c_(n, -1.0),
      th_decay_c_(n, 1.0),
      th_dt_d_(n, -1.0),
      th_decay_d_(n, 1.0),
      true_power_w_(n, 0.0),
      est_power_w_(n, 0.0),
      static_power_w_(n, 0.0),
      cpu_dyn_w_(n, 0.0),
      idle_leak_w_(n, 0.0),
      base_idle_mem_w_(n, 0.0),
      nic_dyn_w_(n, 0.0),
      nic_div_(n, 0.0),
      true_valid_(n, 0),
      est_valid_(n, 0),
      static_valid_(n, 0),
      changed_mark_(n, 0) {}

void NodeStatePool::init_slot(std::size_t i, const NodeSpec* spec,
                              double variation) {
  spec_[i] = spec;
  level_[i] = spec->ladder.highest();
  relative_speed_[i] = spec->ladder.relative_speed(level_[i]);
  variation_[i] = variation;
  busy_[i] = 0;
  cpu_utilization_[i] = 0.0;
  mem_used_[i] = 0.0;
  mem_total_[i] = spec->mem_total.value();
  nic_bytes_[i] = 0.0;
  tau_s_[i] = 1.0;
  nic_bandwidth_[i] = spec->nic_bandwidth;
  temperature_c_[i] = spec->thermal.ambient.value();
  thermal_time_s_[i] = 0.0;
  true_valid_[i] = 0;
  est_valid_[i] = 0;
  static_valid_[i] = 0;
}

OperatingPoint NodeStatePool::operating_point(std::size_t i) const {
  OperatingPoint op;
  op.cpu_utilization = cpu_utilization_[i];
  op.mem_used = Bytes{mem_used_[i]};
  op.mem_total = Bytes{mem_total_[i]};
  op.nic_bytes = Bytes{nic_bytes_[i]};
  op.tau = Seconds{tau_s_[i]};
  op.nic_bandwidth = nic_bandwidth_[i];
  return op;
}

Level NodeStatePool::set_level(std::size_t i, Level l) {
  const NodeSpec& spec = *spec_[i];
  const Level before = level_[i];
  Level next;
  if (!spec.controllable) {
    next = spec.ladder.highest();
  } else {
    next = std::clamp(l, spec.ladder.lowest(), spec.ladder.highest());
  }
  if (next != before) {
    // Heat through the present instant at the pre-change draw before the
    // cached power is invalidated; the post-change power only applies
    // from here on.
    advance_temperature_to(i, now_s_);
    level_[i] = next;
    relative_speed_[i] = spec.ladder.relative_speed(next);
    static_valid_[i] = 0;
    true_valid_[i] = 0;
    est_valid_[i] = 0;
    note_power_change(i);
  }
  return next;
}

void NodeStatePool::set_static_op(std::size_t i, double mem_used,
                                  double nic_bytes, double tau_s,
                                  double nic_bandwidth) {
  mem_used_[i] = mem_used;
  nic_bytes_[i] = nic_bytes;
  tau_s_[i] = tau_s;
  nic_bandwidth_[i] = nic_bandwidth;
  static_valid_[i] = 0;
  true_valid_[i] = 0;
  est_valid_[i] = 0;
}

void NodeStatePool::set_operating_point(std::size_t i,
                                        const OperatingPoint& op) {
  // External (Node-view) writes land mid-timeline like level changes do:
  // heat at the pre-write draw first, and let a tracking owner know this
  // slot's accounted power needs a refresh.
  advance_temperature_to(i, now_s_);
  note_power_change(i);
  if (static_valid_[i] != 0 && op.mem_used.value() == mem_used_[i] &&
      op.mem_total.value() == mem_total_[i] &&
      op.nic_bytes.value() == nic_bytes_[i] && op.tau.value() == tau_s_[i] &&
      op.nic_bandwidth == nic_bandwidth_[i]) {
    cpu_utilization_[i] = op.cpu_utilization;
  } else {
    cpu_utilization_[i] = op.cpu_utilization;
    mem_used_[i] = op.mem_used.value();
    mem_total_[i] = op.mem_total.value();
    nic_bytes_[i] = op.nic_bytes.value();
    tau_s_[i] = op.tau.value();
    nic_bandwidth_[i] = op.nic_bandwidth;
    static_valid_[i] = 0;
  }
  true_valid_[i] = 0;
  est_valid_[i] = 0;
}

void NodeStatePool::refresh_static(std::size_t i) const {
  // Exactly PowerModel::power's evaluation order — ((idle + mem) + nic)
  // first, then + uti * cpu_dyn in estimated_power() — split so the
  // observed-counters fast path can re-evaluate the NIC term alone.
  const NodeSpec& spec = *spec_[i];
  const DevicePowerTable& t = spec.power_model.table();
  const auto l = static_cast<std::size_t>(level_[i]);
  const double mem_frac =
      mem_total_[i] <= 0.0
          ? 0.0
          : std::clamp(mem_used_[i] / mem_total_[i], 0.0, 1.0);
  const double denom = tau_s_[i] * nic_bandwidth_[i];
  const double nic_frac =
      denom <= 0.0 ? 0.0 : std::clamp(nic_bytes_[i] / denom, 0.0, 1.0);
  const double base = t.idle[l].value() + mem_frac * t.mem_dyn[l].value();
  base_idle_mem_w_[i] = base;
  nic_dyn_w_[i] = t.nic_dyn[l].value();
  nic_div_[i] = denom;
  static_power_w_[i] = base + nic_frac * t.nic_dyn[l].value();
  cpu_dyn_w_[i] = t.cpu_dyn[l].value();
  idle_leak_w_[i] = t.idle[l].value();
  static_valid_[i] = 1;
}

Watts NodeStatePool::estimated_power(std::size_t i) const {
  if (est_valid_[i] != 0) return Watts{est_power_w_[i]};
  if (static_valid_[i] == 0) refresh_static(i);
  const double uti = std::clamp(cpu_utilization_[i], 0.0, 1.0);
  est_power_w_[i] = static_power_w_[i] + cpu_dyn_w_[i] * uti;
  est_valid_[i] = 1;
  return Watts{est_power_w_[i]};
}

Watts NodeStatePool::true_power(std::size_t i) const {
  if (true_valid_[i] != 0) return Watts{true_power_w_[i]};
  const double estimated = estimated_power(i).value();
  const double idle = idle_leak_w_[i];
  const double leak = leakage_factor(spec_[i]->thermal, temperature_c_[i]);
  true_power_w_[i] = ((estimated - idle) + idle * leak) * variation_[i];
  true_valid_[i] = 1;
  return Watts{true_power_w_[i]};
}

Watts NodeStatePool::estimated_power_at(std::size_t i, Level l) const {
  const NodeSpec& spec = *spec_[i];
  const Level clamped =
      std::clamp(l, spec.ladder.lowest(), spec.ladder.highest());
  if (clamped == level_[i]) return estimated_power(i);
  return spec.power_model.power(clamped, operating_point(i));
}

void NodeStatePool::step_temperature(std::size_t i, double power_w,
                                     double dt_s) const {
  const ThermalParams& th = spec_[i]->thermal;
  double decay;
  if (th_dt_a_[i] == dt_s) {
    decay = th_decay_a_[i];
  } else if (th_dt_b_[i] == dt_s) {
    decay = th_decay_b_[i];
    std::swap(th_dt_a_[i], th_dt_b_[i]);
    std::swap(th_decay_a_[i], th_decay_b_[i]);
  } else if (th_dt_c_[i] == dt_s) {
    decay = th_decay_c_[i];
    th_dt_c_[i] = th_dt_b_[i];
    th_decay_c_[i] = th_decay_b_[i];
    th_dt_b_[i] = th_dt_a_[i];
    th_decay_b_[i] = th_decay_a_[i];
    th_dt_a_[i] = dt_s;
    th_decay_a_[i] = decay;
  } else if (th_dt_d_[i] == dt_s) {
    decay = th_decay_d_[i];
    th_dt_d_[i] = th_dt_c_[i];
    th_decay_d_[i] = th_decay_c_[i];
    th_dt_c_[i] = th_dt_b_[i];
    th_decay_c_[i] = th_decay_b_[i];
    th_dt_b_[i] = th_dt_a_[i];
    th_decay_b_[i] = th_decay_a_[i];
    th_dt_a_[i] = dt_s;
    th_decay_a_[i] = decay;
  } else {
    decay = thermal_decay(th, dt_s);
    th_dt_d_[i] = th_dt_c_[i];
    th_decay_d_[i] = th_decay_c_[i];
    th_dt_c_[i] = th_dt_b_[i];
    th_decay_c_[i] = th_decay_b_[i];
    th_dt_b_[i] = th_dt_a_[i];
    th_decay_b_[i] = th_decay_a_[i];
    th_dt_a_[i] = dt_s;
    th_decay_a_[i] = decay;
  }
  temperature_c_[i] = thermal_fast_forward(th, temperature_c_[i], power_w,
                                           decay);
  if (th.leakage_coefficient != 0.0) true_valid_[i] = 0;
}

Celsius NodeStatePool::advance_temperature_to(std::size_t i,
                                              double now_s) const {
  const double dt = now_s - thermal_time_s_[i];
  if (dt > 0.0) {
    const double p = true_power(i).value();
    step_temperature(i, p, dt);
    thermal_time_s_[i] = now_s;
  }
  return Celsius{temperature_c_[i]};
}

void NodeStatePool::enable_change_tracking() {
  track_changes_ = true;
  changed_list_.reserve(64);
}

void NodeStatePool::note_power_change(std::size_t i) {
  if (!track_changes_ || changed_mark_[i] != 0) return;
  changed_mark_[i] = 1;
  changed_list_.push_back(static_cast<std::uint32_t>(i));
}

void NodeStatePool::clear_changed() {
  for (const std::uint32_t i : changed_list_) changed_mark_[i] = 0;
  changed_list_.clear();
}

}  // namespace pcap::hw
