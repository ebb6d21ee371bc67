#include "hw/watchdog.hpp"

#include <algorithm>
#include <stdexcept>

namespace pcap::hw {

void WatchdogParams::validate() const {
  if (timeout_cycles < 0) {
    throw std::invalid_argument(
        "WatchdogParams: 'timeout_cycles' must be >= 0 (0 disables)");
  }
  if (safe_level < 0) {
    throw std::invalid_argument("WatchdogParams: 'safe_level' must be >= 0");
  }
}

FailsafeWatchdog::FailsafeWatchdog(WatchdogParams params) : params_(params) {
  params_.validate();
}

FailsafeWatchdog::Slot& FailsafeWatchdog::slot(NodeId id) {
  if (id >= slots_.size()) {
    slots_.resize(id + 1);
  }
  return slots_[id];
}

void FailsafeWatchdog::set_groups(
    const std::vector<std::vector<NodeId>>& groups) {
  for (Slot& s : slots_) {
    s.member = false;
  }
  groups_ = groups;
  group_hb_.assign(groups_.size(), cycle_);
  engaged_per_group_.assign(groups_.size(), 0);
  pending_per_group_.assign(groups_.size(), 0);
  pending_count_ = 0;
  engaged_count_ = 0;
  // Size the slot table once for the highest member id rather than
  // growing it id by id below: a growth chain leaves a trail of freed
  // blocks behind in the heap.
  std::size_t end = slots_.size();
  for (const std::vector<NodeId>& members : groups_) {
    for (const NodeId id : members) {
      end = std::max(end, static_cast<std::size_t>(id) + 1);
    }
  }
  slots_.resize(end);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (NodeId id : groups_[g]) {
      Slot& s = slot(id);
      s.group = static_cast<std::uint32_t>(g);
      s.member = true;
      if (s.engaged) {
        ++engaged_per_group_[g];
        ++engaged_count_;
      }
      if (s.pending) {
        ++pending_per_group_[g];
        ++pending_count_;
      }
    }
  }
  // Ex-members keep engaged/pending flags locally but drop out of every
  // count; rejoining a group recounts them above.
  for (Slot& s : slots_) {
    if (!s.member) {
      s.engaged = false;
      s.pending = false;
    }
  }
}

void FailsafeWatchdog::heartbeat(std::size_t group) {
  if (group < group_hb_.size()) {
    group_hb_[group] = cycle_;
  }
}

void FailsafeWatchdog::contact(NodeId id) {
  slot(id).last_contact = cycle_;
}

std::size_t FailsafeWatchdog::tick(std::vector<Node>& nodes) {
  if (!params_.enabled()) {
    ++cycle_;
    return 0;
  }
  std::size_t changed = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const bool group_stale = cycle_ - group_hb_[g] >= params_.timeout_cycles;
    // Healthy groups with nothing engaged cost one comparison; members are
    // only walked while the group is stale or still has nodes to release.
    if (!group_stale && engaged_per_group_[g] == 0) {
      continue;
    }
    for (NodeId id : groups_[g]) {
      Slot& s = slots_[id];
      const std::int64_t last_heard = std::max(group_hb_[g], s.last_contact);
      if (cycle_ - last_heard >= params_.timeout_cycles) {
        if (id >= nodes.size() || !nodes[id].controllable()) {
          continue;  // nothing a local agent could throttle
        }
        Node& node = nodes[id];
        if (!s.engaged) {
          s.engaged = true;
          ++engaged_per_group_[g];
          ++engaged_count_;
          ++engagements_;
        }
        // Re-asserted every silent cycle: a mid-outage reboot resets the
        // node to full power, and nobody else will cap it again.
        if (node.level() > params_.safe_level) {
          const Level before = node.level();
          if (node.set_level(params_.safe_level) != before) {
            ++failsafe_transitions_;
            ++changed;
            if (!s.pending) {
              s.pending = true;
              ++pending_per_group_[g];
              ++pending_count_;
            }
          }
        }
      } else if (s.engaged) {
        // Controller is back for this node; the pending flag stays until
        // the reconciler adopts the level it finds.
        s.engaged = false;
        --engaged_per_group_[g];
        --engaged_count_;
      }
    }
  }
  ++cycle_;
  return changed;
}

void FailsafeWatchdog::resolve_adoption(NodeId id) {
  if (id >= slots_.size() || !slots_[id].pending) {
    return;
  }
  Slot& s = slots_[id];
  s.pending = false;
  --pending_count_;
  if (s.member && s.group < pending_per_group_.size()) {
    --pending_per_group_[s.group];
  }
}

}  // namespace pcap::hw
