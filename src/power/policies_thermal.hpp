// Thermal-aware target selection (extension).
//
// The paper motivates ΔP×T as a proxy for accumulated thermal damage and
// cites Sarood & Kale's temperature-driven load balancing [5]; its §VI
// leaves further policies as future work. These extensions act on the
// agents' board-temperature sensors directly:
//
//   HT    — hottest job: throttle the job whose candidate nodes have the
//           highest mean temperature.
//   HT-C  — collection variant: hottest jobs first until the expected
//           power saving covers P - P_L (Algorithm 2's skeleton).
//
// Rationale: the node most likely to trip thermal protection — and the
// one whose leakage is inflating system power — is the hottest one, not
// necessarily the one drawing the most instantaneous power.
#pragma once

#include "power/policy.hpp"

namespace pcap::power {

class HottestJob final : public TargetSelectionPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "ht"; }
  std::vector<hw::NodeId> select(const PolicyContext& ctx) override;

 private:
  SelectionScratch scratch_;
};

class HottestJobCollection final : public TargetSelectionPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "ht-c"; }
  std::vector<hw::NodeId> select(const PolicyContext& ctx) override;

 private:
  SelectionScratch scratch_;
};

/// Mean board temperature over a job's candidate nodes (degrees C);
/// 0 for an empty node list.
double mean_job_temperature(const PolicyContext& ctx, const JobView& job);

}  // namespace pcap::power
