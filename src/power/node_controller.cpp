#include "power/node_controller.hpp"

#include <stdexcept>

namespace pcap::power {

std::size_t NodeController::apply(const std::vector<LevelCommand>& commands,
                                  std::vector<hw::Node>& nodes) {
  std::size_t changed = 0;
  for (const LevelCommand& cmd : commands) {
    ++received_;
    if (cmd.node >= nodes.size()) {
      throw std::out_of_range("NodeController: command for unknown node");
    }
    hw::Node& node = nodes[cmd.node];
    const hw::Level before = node.level();
    const hw::Level after = node.set_level(cmd.level);
    if (after != cmd.level) ++clamped_;
    if (after != before) {
      ++applied_;
      ++changed;
    }
  }
  return changed;
}

}  // namespace pcap::power
