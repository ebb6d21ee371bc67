#include "hw/power_meter.hpp"

#include <algorithm>
#include <stdexcept>

namespace pcap::hw {

void PowerSumTree::reset(std::size_t n) {
  leaf_.assign(n, 0.0);
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  block_sum_.assign(blocks, 0.0);
  block_dirty_.assign(blocks, 0);
  dirty_blocks_.clear();
  dirty_blocks_.reserve(blocks);
}

void PowerSumTree::set_leaf(std::size_t i, double power_w) {
  leaf_[i] = power_w;
  const std::size_t b = i / kBlock;
  if (block_dirty_[b] == 0) {
    block_dirty_[b] = 1;
    dirty_blocks_.push_back(static_cast<std::uint32_t>(b));
  }
}

double PowerSumTree::total() {
  for (const std::uint32_t b : dirty_blocks_) {
    const std::size_t begin = static_cast<std::size_t>(b) * kBlock;
    const std::size_t end = std::min(begin + kBlock, leaf_.size());
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) sum += leaf_[i];
    block_sum_[b] = sum;
    block_dirty_[b] = 0;
  }
  dirty_blocks_.clear();
  double total = 0.0;
  for (const double s : block_sum_) total += s;
  return total;
}

SystemPowerMeter::SystemPowerMeter(PowerMeterParams params, common::Rng rng)
    : params_(params), rng_(rng) {
  if (params_.psu_efficiency <= 0.0 || params_.psu_efficiency > 1.0) {
    throw std::invalid_argument("SystemPowerMeter: bad PSU efficiency");
  }
  if (params_.noise_sigma < 0.0) {
    throw std::invalid_argument("SystemPowerMeter: negative noise");
  }
}

Watts SystemPowerMeter::measure_sum(Watts it_power) {
  const Watts truth = it_power / params_.psu_efficiency;
  if (params_.noise_sigma == 0.0) return truth;
  const double factor =
      std::max(0.0, rng_.normal(1.0, params_.noise_sigma));
  return truth * factor;
}

}  // namespace pcap::hw
