#include "power/policy.hpp"

#include <algorithm>

namespace pcap::power {

Watts PolicyContext::required_saving() const {
  const Watts gap = system_power - p_low;
  return gap > Watts{0.0} ? gap : Watts{0.0};
}

const NodeView* PolicyContext::node(hw::NodeId id) const {
  const std::uint32_t* idx = node_index_.find(id);
  return idx == nullptr || *idx == kNoIndex ? nullptr : &nodes[*idx];
}

void PolicyContext::index_nodes() {
  if (nodes.empty()) {
    node_index_.clear();
    return;
  }
  const auto [lo, hi] = std::minmax_element(
      nodes.begin(), nodes.end(),
      [](const NodeView& a, const NodeView& b) { return a.id < b.id; });
  node_index_.reset(lo->id, hi->id, kNoIndex);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    node_index_[nodes[i].id] = static_cast<std::uint32_t>(i);
  }
}

void SelectionScratch::build(const PolicyContext& ctx) {
  refs_.clear();
  node_buf_.clear();
  if (ctx.jobs_have_throttleable) {
    // The job pass already filtered each job's nodes and accumulated the
    // one-level saving over exactly that sequence: building the scratch is
    // a range copy per job, O(jobs + targets) instead of a ctx.node()
    // probe per node of every job.
    for (const JobView& j : ctx.jobs) {
      if (j.throttleable.empty()) continue;
      const auto begin = static_cast<std::uint32_t>(node_buf_.size());
      node_buf_.insert(node_buf_.end(), j.throttleable.begin(),
                       j.throttleable.end());
      const auto end = static_cast<std::uint32_t>(node_buf_.size());
      refs_.push_back(
          Ref{&j, begin, end, j.saving_one_level, j.rate_of_increase()});
    }
    return;
  }
  for (const JobView& j : ctx.jobs) {
    const auto begin = static_cast<std::uint32_t>(node_buf_.size());
    Watts saving{0.0};
    for (const hw::NodeId id : j.nodes) {
      const NodeView* nv = ctx.node(id);
      if (nv != nullptr && nv->busy && !nv->at_lowest && !nv->stale &&
          !nv->command_in_flight) {
        node_buf_.push_back(id);
        saving += nv->power - nv->power_one_level_down;
      }
    }
    const auto end = static_cast<std::uint32_t>(node_buf_.size());
    if (end == begin) continue;  // nothing throttleable in this job
    refs_.push_back(Ref{&j, begin, end, saving, j.rate_of_increase()});
  }
}

}  // namespace pcap::power
