// Facility-level power meter.
//
// §II.D (observability): "the system's total power consumption can be
// measured directly". The meter integrates the *true* node powers — the
// controller never sees per-node truth, only this one aggregate scalar
// plus the agents' formula-(1) estimates.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace pcap::hw {

struct PowerMeterParams {
  double psu_efficiency = 0.92;  ///< wall power = IT power / efficiency.
  double noise_sigma = 0.002;    ///< relative gaussian measurement noise.
};

/// Block-partial-sum ledger for the facility meter's IT-side total.
///
/// The event-driven tick only re-evaluates the nodes whose power moved, so
/// the aggregate cannot be a full O(N) fold any more — but an incremental
/// running sum drifts (floating-point addition does not commute with
/// subtraction) and its bits would depend on the update history. Instead
/// the ledger keeps one leaf per node and fixed 64-leaf block partial
/// sums: an update dirties its block, total() re-folds dirty blocks and
/// then the block sums, both serially in ascending index order. The total
/// is therefore a pure function of the leaf values — bit-identical across
/// serial/parallel sweeps and quiescence on/off, and its cost is
/// O(dirty-blocks + N/64) per tick instead of O(N).
class PowerSumTree {
 public:
  static constexpr std::size_t kBlock = 64;

  void reset(std::size_t n);
  [[nodiscard]] std::size_t size() const { return leaf_.size(); }

  /// Last power accounted for node i (the ledger the deltas are computed
  /// against).
  [[nodiscard]] double leaf(std::size_t i) const { return leaf_[i]; }

  /// Writes leaf i and marks its block dirty. Callers update leaves in
  /// ascending index order (the serial fold discipline), which keeps the
  /// dirty-block list sorted for free.
  void set_leaf(std::size_t i, double power_w);

  /// Re-folds dirty blocks (ascending), then folds the block sums
  /// (ascending) into the IT-side total.
  [[nodiscard]] double total();

 private:
  std::vector<double> leaf_;
  std::vector<double> block_sum_;
  std::vector<std::uint8_t> block_dirty_;
  std::vector<std::uint32_t> dirty_blocks_;
};

class SystemPowerMeter {
 public:
  SystemPowerMeter(PowerMeterParams params, common::Rng rng);

  /// The IT-side sum of node true powers (the cluster's PowerSumTree
  /// total) divided by PSU efficiency, with one multiplicative
  /// measurement-noise draw. This is P in Algorithm 1.
  Watts measure_sum(Watts it_power);

  [[nodiscard]] const PowerMeterParams& params() const { return params_; }

 private:
  PowerMeterParams params_;
  common::Rng rng_;
};

}  // namespace pcap::hw
