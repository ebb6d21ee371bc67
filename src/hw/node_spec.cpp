#include "hw/node_spec.hpp"

#include <stdexcept>

namespace pcap::hw {

using namespace pcap::literals;

void NodeSpec::validate() const {
  if (ladder.num_levels() != power_model.num_levels()) {
    throw std::invalid_argument(
        "NodeSpec: ladder and power table depth differ");
  }
  if (sockets <= 0 || cores_per_socket <= 0) {
    throw std::invalid_argument("NodeSpec: non-positive core counts");
  }
  if (mem_total <= Bytes{0.0}) {
    throw std::invalid_argument("NodeSpec: non-positive memory");
  }
  if (nic_bandwidth <= 0.0) {
    throw std::invalid_argument("NodeSpec: non-positive NIC bandwidth");
  }
  if (thermal.thermal_resistance < 0.0 ||
      thermal.time_constant <= Seconds{0.0} ||
      thermal.leakage_coefficient < 0.0) {
    throw std::invalid_argument("NodeSpec: bad thermal parameters");
  }
}

NodeSpecPtr tianhe1a_node_spec() {
  static const NodeSpecPtr spec = [] {
    DvfsLadder ladder = DvfsLadder::xeon_x5670();
    // Idle splits into a level-independent base (board, fans, chipset) and
    // a part scaling with the CPU's f*V^2 (uncore + idle core power).
    // Dynamic maxima: 190 W for the two sockets, 60 W for 12 DIMMs, 25 W
    // for the Tianhe NIC.
    DevicePowerTable table = make_scaled_table(
        ladder, /*idle_base=*/95.0_W, /*idle_scaled=*/45.0_W,
        /*cpu_dyn_max=*/190.0_W, /*mem_dyn=*/60.0_W, /*nic_dyn=*/25.0_W);
    auto s = std::make_shared<NodeSpec>(NodeSpec{
        .name = "tianhe1a",
        .sockets = 2,
        .cores_per_socket = 6,
        .mem_total = 48_GiB,
        .nic_bandwidth = 5e9,  // ~40 Gb/s Tianhe interconnect per node
        .ladder = std::move(ladder),
        .power_model = PowerModel{std::move(table)},
        .thermal = ThermalParams{},
        .controllable = true,
    });
    s->validate();
    return s;
  }();
  return spec;
}

NodeSpecPtr low_power_node_spec() {
  static const NodeSpecPtr spec = [] {
    DvfsLadder ladder = DvfsLadder::coarse_low_power();
    DevicePowerTable table = make_scaled_table(
        ladder, /*idle_base=*/40.0_W, /*idle_scaled=*/20.0_W,
        /*cpu_dyn_max=*/70.0_W, /*mem_dyn=*/25.0_W, /*nic_dyn=*/10.0_W);
    auto s = std::make_shared<NodeSpec>(NodeSpec{
        .name = "low_power",
        .sockets = 1,
        .cores_per_socket = 8,
        .mem_total = 16_GiB,
        .nic_bandwidth = 1.25e9,  // 10 Gb/s
        .ladder = std::move(ladder),
        .power_model = PowerModel{std::move(table)},
        .thermal = ThermalParams{},
        .controllable = true,
    });
    s->validate();
    return s;
  }();
  return spec;
}

NodeSpecPtr uncontrollable_node_spec() {
  static const NodeSpecPtr spec = [] {
    // A single-level "ladder": the node always runs flat out. The ladder
    // type requires ascending frequencies, so one entry is the natural way
    // to express "no DVFS facility".
    DvfsLadder ladder({2.93_GHz}, 1.20, 1.20);
    DevicePowerTable table = make_scaled_table(
        ladder, /*idle_base=*/95.0_W, /*idle_scaled=*/45.0_W,
        /*cpu_dyn_max=*/190.0_W, /*mem_dyn=*/60.0_W, /*nic_dyn=*/25.0_W);
    auto s = std::make_shared<NodeSpec>(NodeSpec{
        .name = "uncontrollable",
        .sockets = 2,
        .cores_per_socket = 6,
        .mem_total = 48_GiB,
        .nic_bandwidth = 5e9,
        .ladder = std::move(ladder),
        .power_model = PowerModel{std::move(table)},
        .thermal = ThermalParams{},
        .controllable = false,
    });
    s->validate();
    return s;
  }();
  return spec;
}

}  // namespace pcap::hw
