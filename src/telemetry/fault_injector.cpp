#include "telemetry/fault_injector.hpp"

#include <algorithm>
#include <stdexcept>

namespace pcap::telemetry {

void FaultParams::validate() const {
  const auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!probability(agent_dropout_rate) || !probability(agent_recovery_rate) ||
      !probability(crash_rate) || !probability(corruption_rate)) {
    throw std::invalid_argument("FaultParams: rates must be in [0, 1]");
  }
  if (crash_rate > 0.0 && crash_duration_cycles <= 0) {
    throw std::invalid_argument(
        "FaultParams: crash windows need a positive duration");
  }
}

FaultInjector::FaultInjector(FaultParams params, common::Rng rng)
    : params_(params), root_(rng) {
  params_.validate();
}

void FaultInjector::ensure_nodes(const std::vector<hw::NodeId>& ids) {
  if (ids.empty()) return;
  const auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
  states_.cover(*lo, *hi);
  for (const hw::NodeId id : ids) {
    NodeState& st = states_[id];
    if (!st.known) {
      // stream(id) derives the node's fault stream as a pure function of
      // (injector seed, id): registration order cannot change the draws.
      st.rng = root_.stream(id);
      st.known = true;
    }
  }
}

FaultInjector::Outcome FaultInjector::apply(NodeSample& sample) {
  Outcome out;
  NodeState* found = states_.find(sample.node);
  if (found == nullptr || !found->known) {
    // Unregistered node (collector bug rather than injected fault): let
    // the sample through untouched.
    return out;
  }
  NodeState& st = *found;

  // Crash process. An open window silences the node; on expiry the node
  // rejoins with its agent up (a rebooted node restarts its agent too).
  if (st.crash_cycles_left > 0) {
    if (--st.crash_cycles_left == 0) {
      out.recovered = true;
      st.agent_up = true;
      recovery_events_.fetch_add(1, std::memory_order_relaxed);
    } else {
      out.suppressed = true;
      samples_suppressed_.fetch_add(1, std::memory_order_relaxed);
      return out;
    }
  } else if (params_.crash_rate > 0.0 && st.rng.bernoulli(params_.crash_rate)) {
    st.crash_cycles_left = params_.crash_duration_cycles;
    out.crash_started = true;
    out.suppressed = true;
    crash_events_.fetch_add(1, std::memory_order_relaxed);
    samples_suppressed_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

  // Agent dropout process (independent of crashes).
  if (st.agent_up) {
    if (params_.agent_dropout_rate > 0.0 &&
        st.rng.bernoulli(params_.agent_dropout_rate)) {
      st.agent_up = false;
      agent_dropouts_.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (st.rng.bernoulli(params_.agent_recovery_rate)) {
    st.agent_up = true;
  }
  if (!st.agent_up) {
    out.suppressed = true;
    samples_suppressed_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

  // Corruption: the report escapes, but its power estimate is garbage.
  // Always implausible (negative, or far beyond any board's ceiling), so a
  // sanity-checking consumer can reject it; a naive one mis-caps.
  if (params_.corruption_rate > 0.0 &&
      st.rng.bernoulli(params_.corruption_rate)) {
    out.corrupted = true;
    samples_corrupted_.fetch_add(1, std::memory_order_relaxed);
    if (st.rng.bernoulli(0.5)) {
      sample.estimated_power = -sample.estimated_power - Watts{1.0};
    } else {
      sample.estimated_power =
          (sample.estimated_power + Watts{1.0}) * st.rng.uniform(50.0, 500.0);
    }
  }
  return out;
}

bool FaultInjector::is_silent(hw::NodeId id) const {
  const NodeState* st = states_.find(id);
  return st != nullptr && st->known &&
         (st->crash_cycles_left > 0 || !st->agent_up);
}

std::size_t FaultInjector::silent_count() const {
  std::size_t n = 0;
  for (std::size_t id = states_.begin_id(); id < states_.end_id(); ++id) {
    const NodeState& st = states_[id];
    if (st.known && (st.crash_cycles_left > 0 || !st.agent_up)) ++n;
  }
  return n;
}

}  // namespace pcap::telemetry
