// Node-side actuation of level commands.
//
// The manager "sends commands to all nodes in A_target and tells them to
// regulate their power state to the corresponding target level" (§III.A).
// The controller is the receiving end: it clamps to each node's ladder,
// skips uncontrollable nodes, and keeps actuation statistics.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/node.hpp"
#include "power/capping.hpp"

namespace pcap::power {

class NodeController {
 public:
  NodeController() = default;

  /// Applies a batch of commands against the node array (indexed by id).
  /// Returns the number of nodes whose level actually changed.
  std::size_t apply(const std::vector<LevelCommand>& commands,
                    std::vector<hw::Node>& nodes);

  [[nodiscard]] std::uint64_t commands_received() const { return received_; }
  [[nodiscard]] std::uint64_t transitions_applied() const { return applied_; }
  [[nodiscard]] std::uint64_t commands_ignored() const {
    return received_ - applied_;
  }
  /// Commands whose requested level the node clamped (off-ladder request,
  /// or an uncontrollable node pinning itself to the top). Disjoint
  /// bookkeeping from commands_ignored(): a clamped command may still
  /// change the level, and an ignored one may simply have been a no-op.
  [[nodiscard]] std::uint64_t commands_clamped() const { return clamped_; }

 private:
  std::uint64_t received_ = 0;
  std::uint64_t applied_ = 0;
  std::uint64_t clamped_ = 0;
};

}  // namespace pcap::power
