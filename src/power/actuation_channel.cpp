#include "power/actuation_channel.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace pcap::power {

void ActuationFaultParams::validate() const {
  const auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!probability(command_loss_rate) ||
      !probability(transition_failure_rate) ||
      !probability(partial_transition_rate) || !probability(reboot_rate)) {
    throw std::invalid_argument(
        "ActuationFaultParams: rates must be in [0, 1]");
  }
  if (delivery_delay_cycles < 0) {
    throw std::invalid_argument(
        "ActuationFaultParams: delivery delay must be >= 0 cycles");
  }
  if (reboot_rate > 0.0 && reboot_duration_cycles <= 0) {
    throw std::invalid_argument(
        "ActuationFaultParams: reboot windows need a positive duration");
  }
}

ActuationChannel::ActuationChannel(ActuationFaultParams params,
                                   common::Rng rng)
    : params_(params), root_(rng) {
  params_.validate();
}

void ActuationChannel::ensure_nodes(const std::vector<hw::NodeId>& ids) {
  // A bypassed channel passes commands straight through and never reads
  // per-node state, so it keeps none.
  if (!params_.enabled() || ids.empty()) return;
  const auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
  states_.cover(*lo, *hi);
  for (const hw::NodeId id : ids) {
    NodeState& st = states_[id];
    if (!st.known) {
      // stream(id) derives the node's fault stream as a pure function of
      // (channel seed, id): registration order cannot change the draws.
      st.rng = root_.stream(id);
      st.known = true;
    }
  }
}

void ActuationChannel::deliver(NodeState& st, hw::NodeId id,
                               hw::Level target, const hw::Node& node,
                               std::vector<LevelCommand>& delivered) {
  if (params_.transition_failure_rate > 0.0 &&
      st.rng.bernoulli(params_.transition_failure_rate)) {
    ++failed_;
    return;
  }
  const hw::Level current = node.level();
  if (std::abs(target - current) > 1 &&
      params_.partial_transition_rate > 0.0 &&
      st.rng.bernoulli(params_.partial_transition_rate)) {
    // The transition stalls one step in: the node ends up between where
    // it was and where it was told to go — exactly the state a believed-
    // level table would get wrong without telemetry-based reconciliation.
    ++partial_;
    const hw::Level step = current + (target > current ? 1 : -1);
    delivered.push_back(LevelCommand{id, step});
    return;
  }
  delivered.push_back(LevelCommand{id, target});
}

void ActuationChannel::begin_cycle(std::vector<hw::Node>& nodes,
                                   std::vector<LevelCommand>& delivered) {
  ++cycle_;
  if (!params_.enabled()) return;

  for (std::size_t id = states_.begin_id(); id < states_.end_id(); ++id) {
    NodeState& st = states_[id];
    if (!st.known) continue;

    // Reboot process. An open window counts down; on a fresh draw the
    // node resets to its highest level (a hardware event, applied here
    // directly rather than emitted as a command) and everything queued
    // for it dies with the old kernel.
    if (st.reboot_cycles_left > 0) {
      --st.reboot_cycles_left;
    } else if (params_.reboot_rate > 0.0 &&
               st.rng.bernoulli(params_.reboot_rate)) {
      st.reboot_cycles_left = params_.reboot_duration_cycles;
      ++reboots_;
      if (id < nodes.size()) {
        nodes[id].set_level(nodes[id].spec().ladder.highest());
      }
      dropped_rebooting_ += st.queue.size();
      in_flight_ -= st.queue.size();
      st.queue.clear();
    }

    // Delayed deliveries whose time has come. Failure/partial draws
    // happen now, at delivery: what matters is the node's level when the
    // command finally lands, not when it was sent.
    std::size_t kept = 0;
    for (QueuedCommand& qc : st.queue) {
      if (qc.deliver_at_cycle > cycle_) {
        st.queue[kept++] = qc;
        continue;
      }
      --in_flight_;
      if (st.reboot_cycles_left > 0) {
        ++dropped_rebooting_;
        continue;
      }
      if (id < nodes.size()) {
        deliver(st, static_cast<hw::NodeId>(id), qc.level, nodes[id],
                delivered);
      }
    }
    st.queue.resize(kept);
  }
}

void ActuationChannel::send(const std::vector<LevelCommand>& commands,
                            const std::vector<hw::Node>& nodes,
                            std::vector<LevelCommand>& delivered) {
  if (!params_.enabled()) {
    delivered.insert(delivered.end(), commands.begin(), commands.end());
    return;
  }
  for (const LevelCommand& cmd : commands) {
    NodeState* found = states_.find(cmd.node);
    if (found == nullptr || !found->known) {
      // Unregistered node (manager bug rather than injected fault): pass
      // the command through untouched.
      delivered.push_back(cmd);
      continue;
    }
    NodeState& st = *found;
    if (st.reboot_cycles_left > 0) {
      ++dropped_rebooting_;
      continue;
    }
    if (params_.command_loss_rate > 0.0 &&
        st.rng.bernoulli(params_.command_loss_rate)) {
      ++lost_;
      continue;
    }
    if (params_.delivery_delay_cycles > 0) {
      st.queue.push_back(QueuedCommand{
          cycle_ + static_cast<std::uint64_t>(params_.delivery_delay_cycles),
          cmd.level});
      ++in_flight_;
      continue;
    }
    if (static_cast<std::size_t>(cmd.node) < nodes.size()) {
      deliver(st, cmd.node, cmd.level, nodes[cmd.node], delivered);
    }
  }
}

bool ActuationChannel::rebooting(hw::NodeId id) const {
  const NodeState* st = states_.find(id);
  return st != nullptr && st->known && st->reboot_cycles_left > 0;
}

}  // namespace pcap::power
