#include "power/state.hpp"

#include <stdexcept>

namespace pcap::power {

PowerState classify_power(Watts p, Watts p_low, Watts p_high) {
  if (p_low > p_high) {
    throw std::invalid_argument("classify_power: P_L > P_H");
  }
  if (p < p_low) return PowerState::kGreen;
  if (p < p_high) return PowerState::kYellow;
  return PowerState::kRed;
}

}  // namespace pcap::power
