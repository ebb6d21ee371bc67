// Power consumption states (§II.B).
//
// Two thresholds P_L <= P_H partition the system's power reading into
// green (safe), yellow (warning: throttle mildly) and red (critical:
// throttle everything to the floor immediately).
#pragma once

#include "common/units.hpp"

namespace pcap::power {

enum class PowerState { kGreen, kYellow, kRed };

/// Classifies a measured system power against the two thresholds.
/// Green: P < P_L.  Yellow: P_L <= P < P_H.  Red: P >= P_H.
/// Requires p_low <= p_high.
PowerState classify_power(Watts p, Watts p_low, Watts p_high);

}  // namespace pcap::power
