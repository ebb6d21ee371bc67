// Algorithm 1: the power capping algorithm (§III.B, Figure 2).
//
// Per control cycle, given the measured system power P and the thresholds:
//   green  (P <  P_L): Time_g++; once the system has been green for T_g
//                      consecutive cycles ("steady green"), restore every
//                      degraded node by one level; nodes reaching their
//                      top level leave A_degraded.
//   yellow (P_L <= P < P_H): Time_g := 0; the target selection policy
//                      picks A_target from the candidates; each target is
//                      degraded by one level and joins A_degraded.
//   red    (P >= P_H): Time_g := 0; every candidate node is commanded to
//                      its lowest level; A_degraded := A_candidate.
//
// The engine is pure decision logic: it emits (node, target level)
// commands and never touches hardware. It does not classify either — the
// control root (power/control_root.hpp) reads the meter and hands the
// engine the band to run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "common/id_table.hpp"
#include "common/units.hpp"
#include "power/policy.hpp"
#include "power/state.hpp"

namespace pcap::power {

struct EngineCheckpoint;  // power/checkpoint.hpp

struct CappingParams {
  std::int64_t steady_green_cycles = 10;  ///< T_g (the paper uses 10, §V.C)
};

/// An actuation command: set node `node` to power state `level`.
struct LevelCommand {
  hw::NodeId node = 0;
  hw::Level level = 0;

  friend bool operator==(const LevelCommand&, const LevelCommand&) = default;
};

struct CycleDecision {
  PowerState state = PowerState::kGreen;
  std::vector<LevelCommand> commands;  ///< the A_target with target levels
  /// Policy-selected targets the engine refused this cycle (unknown node,
  /// idle, already at the ladder floor, or stale telemetry). A healthy
  /// policy keeps this at 0; under telemetry faults it quantifies how
  /// often selection ran ahead of the data.
  std::size_t skipped = 0;
  /// Targets passed over because a prior command is still unacked. Unlike
  /// `skipped` this is routine under a lossy actuation plane — the
  /// reconciler's retry clock owns those nodes — so it is counted
  /// separately and never warned about.
  std::size_t deferred_in_flight = 0;
};

/// A_degraded as a dense id membership: one byte per id over the covered
/// span plus a member count, so a member costs a byte instead of a tree
/// node and membership is one array probe. Iteration visits members in
/// ascending id order, the order restore commands and checkpoints come
/// out in.
class DegradedSet {
 public:
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = hw::NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const hw::NodeId*;
    using reference = hw::NodeId;

    const_iterator() = default;
    const_iterator(const DegradedSet* set, std::size_t id)
        : set_(set), id_(id) {
      skip();
    }
    hw::NodeId operator*() const { return static_cast<hw::NodeId>(id_); }
    const_iterator& operator++() {
      ++id_;
      skip();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.id_ == b.id_;
    }

   private:
    // Steps over non-members a word at a time: a stride shard covers the
    // whole cluster's id span, so its few members sit among ~N zero bytes.
    void skip() {
      const std::size_t end = set_->members_.end_id();
      std::uint64_t word = 0;
      while (end - id_ >= sizeof word) {
        std::memcpy(&word, &set_->members_[id_], sizeof word);
        if (word != 0) break;
        id_ += sizeof word;
      }
      while (id_ < end && set_->members_[id_] == 0) ++id_;
    }
    const DegradedSet* set_ = nullptr;
    std::size_t id_ = 0;
  };

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] const_iterator begin() const {
    return {this, members_.begin_id()};
  }
  [[nodiscard]] const_iterator end() const { return {this, members_.end_id()}; }

  /// Widens the membership table to cover ids [lo, hi] without moving a
  /// member: covering the candidate span up front keeps inserts in policy
  /// order from shifting the table.
  void cover(hw::NodeId lo, hw::NodeId hi) { members_.cover(lo, hi); }
  void insert(hw::NodeId id) {
    std::uint8_t& member = members_.touch(id);
    count_ += member == 0 ? 1 : 0;
    member = 1;
  }
  /// Removes a member (the id must be covered).
  void erase(hw::NodeId id) {
    count_ -= members_[id];
    members_[id] = 0;
  }
  void clear() {
    if (count_ == 0) return;
    members_.reset(members_.begin_id(), members_.end_id() - 1, 0);
    count_ = 0;
  }

 private:
  common::IdTable<std::uint8_t> members_;
  std::size_t count_ = 0;
};

class CappingEngine {
 public:
  explicit CappingEngine(CappingParams params);

  /// Runs one cycle of Algorithm 1 in `band` — the state the control root
  /// decided (power/control_root.hpp), after any predictive elevation.
  /// `ctx` must describe the current candidate set (ctx.nodes) and job
  /// aggregation; `policy` is consulted only in yellow, where it reads the
  /// saving to find from ctx.required_saving(). A_degraded is pruned to
  /// ctx's views once per build stamp (PolicyContext::index_nodes()).
  CycleDecision cycle(PowerState band, TargetSelectionPolicy& policy,
                      const PolicyContext& ctx);

  /// A_degraded: candidates this engine has pushed below their top level.
  [[nodiscard]] const DegradedSet& degraded() const { return degraded_; }
  /// Sizes A_degraded's table over a candidate id span [lo, hi].
  void cover_ids(hw::NodeId lo, hw::NodeId hi) { degraded_.cover(lo, hi); }
  /// Time_g: consecutive green cycles so far.
  [[nodiscard]] std::int64_t green_timer() const { return time_g_; }
  /// Invalid/stale policy targets skipped over the engine's lifetime. One
  /// bad target used to abort the whole manager cycle; now it costs one
  /// counted warning and the rest of the decision still lands.
  [[nodiscard]] std::uint64_t skipped_targets() const {
    return skipped_targets_;
  }
  [[nodiscard]] const CappingParams& params() const { return params_; }

  /// Records a non-green cycle without running a decision: Time_g := 0,
  /// A_degraded untouched. The zone tree calls this for a yellow zone
  /// with no deficit share (no shed capacity left), so a later green
  /// period still has to re-earn steady-green before restoring — exactly
  /// as if yellow_cycle had run and emitted nothing.
  void note_non_green_cycle() { time_g_ = 0; }

  /// Adopts a node into A_degraded that this engine did not lower itself
  /// — the failsafe watchdog stepped it down during a controller outage
  /// and the reconciler adopted the observed level. Membership is what
  /// lets steady-green restore the node back up; without it the failsafe
  /// level would stick forever. The node must have a view in the context
  /// the next cycle() runs against (see cycle() in capping.cpp).
  void adopt_degraded(hw::NodeId id) { degraded_.insert(id); }

  /// Captures/restores (Time_g, A_degraded) for warm restart. The
  /// lifetime skipped-target counter is process-scoped and not part of
  /// the image. See power/checkpoint.hpp.
  [[nodiscard]] EngineCheckpoint checkpoint() const;
  void restore(const EngineCheckpoint& cp);

 private:
  CycleDecision green_cycle(const PolicyContext& ctx);
  CycleDecision yellow_cycle(TargetSelectionPolicy& policy,
                             const PolicyContext& ctx);
  CycleDecision red_cycle(const PolicyContext& ctx);

  CappingParams params_;
  std::int64_t time_g_ = 0;
  std::uint64_t skipped_targets_ = 0;
  DegradedSet degraded_;  ///< A_degraded
  /// Build stamp of the context A_degraded was last pruned against; 0
  /// (never an indexed context's stamp) forces the next prune.
  std::uint64_t pruned_build_ = 0;
};

}  // namespace pcap::power
