#include "interconnect/interconnect.hpp"

#include <algorithm>
#include <stdexcept>

namespace pcap::interconnect {

Interconnect::Interconnect(InterconnectParams params, std::size_t num_nodes)
    : params_(params), num_nodes_(num_nodes) {
  if (params_.nodes_per_switch <= 0) {
    throw std::invalid_argument("Interconnect: nodes_per_switch <= 0");
  }
  if (params_.uplink_bandwidth <= 0.0) {
    throw std::invalid_argument("Interconnect: non-positive uplink");
  }
  if (params_.remote_fraction < 0.0 || params_.remote_fraction > 1.0) {
    throw std::invalid_argument("Interconnect: remote fraction in [0,1]");
  }
  if (num_nodes_ == 0) {
    throw std::invalid_argument("Interconnect: no nodes");
  }
  const auto per = static_cast<std::size_t>(params_.nodes_per_switch);
  num_switches_ = (num_nodes_ + per - 1) / per;
}

std::size_t Interconnect::switch_of(std::size_t node) const {
  if (node >= num_nodes_) {
    throw std::out_of_range("Interconnect::switch_of: bad node");
  }
  return node / static_cast<std::size_t>(params_.nodes_per_switch);
}

void Interconnect::delivered_fractions_into(
    const std::vector<double>& offered_bytes, Seconds dt,
    std::vector<double>& out) {
  out.assign(num_nodes_, 1.0);
  if (!params_.enabled) return;
  if (offered_bytes.size() != num_nodes_) {
    throw std::invalid_argument("Interconnect: offered size mismatch");
  }
  if (dt <= Seconds{0.0}) {
    throw std::invalid_argument("Interconnect: non-positive dt");
  }
  switch_offered_.assign(num_switches_, 0.0);
  const auto per = static_cast<std::size_t>(params_.nodes_per_switch);
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    switch_offered_[i / per] +=
        std::max(0.0, offered_bytes[i]) * params_.remote_fraction;
  }
  const double capacity = params_.uplink_bandwidth * dt.value();
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    const double u = switch_offered_[i / per] / capacity;
    if (u > 1.0) out[i] = 1.0 / u;
  }
}

}  // namespace pcap::interconnect
