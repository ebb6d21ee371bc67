// Target set selection policy interface (§IV).
//
// Each control cycle in the yellow state, a policy picks the subset of
// candidate nodes to degrade by one level. Policies see the world through
// PolicyContext — per-node and per-job aggregates derived from telemetry —
// never the hardware directly. The policies themselves are the rows of
// one table (power/policy_registry.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/id_table.hpp"
#include "common/units.hpp"
#include "hw/dvfs.hpp"
#include "hw/node.hpp"
#include "workload/job.hpp"

namespace pcap::power {

/// A candidate node as the policy layer sees it.
struct NodeView {
  hw::NodeId id = 0;
  hw::Level level = 0;
  hw::Level highest_level = 0;  ///< top of this node's ladder
  bool at_lowest = false;  ///< cannot be degraded further
  bool busy = false;       ///< idle nodes must not be targeted (§III.B-4)
  /// The freshest usable sample exceeded the manager's age bound: `power`
  /// is a conservative fallback estimate, not a live reading. Stale nodes
  /// still count towards job power (inflated, so thresholds stay safe)
  /// but must not be selected as throttle targets — the command would act
  /// on a state the manager cannot see.
  bool stale = false;
  /// An actuation command for this node is still unacknowledged: its true
  /// level is in limbo between the telemetry reading and the commanded
  /// target. In-flight nodes keep contributing power (accounted on the
  /// safe side by the manager) but must not be selected again — stacking
  /// a second command on an unconfirmed first acts on a guessed state.
  bool command_in_flight = false;
  /// power_prev holds a real previous-cycle sample (a node can
  /// legitimately read 0.0 W, so the value alone cannot signal absence).
  bool has_prev = false;
  Watts power{0.0};        ///< P(x): formula-(1) estimate, current cycle
  Watts power_prev{0.0};   ///< P^{t-1}(x): previous cycle (0 if unknown)
  Watts power_one_level_down{0.0};  ///< P'(x): estimate at level-1
  Celsius temperature{0.0};  ///< board sensor (thermal-aware extension)
};

/// A job restricted to its candidate, non-idle nodes (Nodes(J) in §IV.A).
struct JobView {
  workload::JobId id = 0;
  std::vector<hw::NodeId> nodes;  ///< candidate nodes running this job
  /// The subset of `nodes` that is currently throttleable (busy, above the
  /// floor, fresh, no command in flight), in `nodes` order — the exact
  /// sequence saving_one_level was accumulated over. Filled by the
  /// manager's job pass (ctx.jobs_have_throttleable is then true), so
  /// SelectionScratch::build copies a range instead of re-probing every
  /// node of every job each yellow cycle.
  std::vector<hw::NodeId> throttleable;
  Watts power{0.0};               ///< P(J) = sum of P(x) over nodes
  Watts power_prev{0.0};          ///< P^{t-1}(J)
  Watts saving_one_level{0.0};    ///< sum of P(x)-P'(x) over throttleable nodes

  /// ΔP^t(J): relative rate of increase (§IV.B); 0 when no history.
  [[nodiscard]] double rate_of_increase() const {
    if (power_prev <= Watts{0.0}) return 0.0;
    return (power - power_prev) / power_prev;
  }
};

struct PolicyContext {
  Watts system_power{0.0};  ///< P: the meter reading this cycle
  Watts p_low{0.0};         ///< P_L (MPC-C/LPC-C/BFP need P - P_L)
  /// Predicted system power h control cycles ahead, stamped by a manager
  /// running a PowerPredictor. Valid only while has_forecast is true;
  /// forecast-driven policies (PI-C, PRED-C) fall back to system_power
  /// otherwise, so they stay usable in managers without a predictor.
  Watts forecast_power{0.0};
  bool has_forecast = false;
  std::vector<NodeView> nodes;
  std::vector<JobView> jobs;
  /// True when every JobView's `throttleable` list is maintained (the
  /// manager's builder does this); hand-built contexts leave it false and
  /// SelectionScratch::build falls back to probing ctx.node() per node.
  bool jobs_have_throttleable = false;

  // Telemetry-health tallies for the cycle this context was built from —
  // the manager copies them into its report so experiments can quantify
  // how much of the candidate set the controller was actually seeing.
  std::size_t stale_nodes = 0;      ///< views older than the age bound
  std::size_t missing_nodes = 0;    ///< candidates with no usable sample
  std::size_t fallback_nodes = 0;   ///< views on a substituted estimate
  std::size_t rejected_samples = 0; ///< implausible samples discarded
  /// Candidates excluded because their actuation retry budget ran out and
  /// no fresh telemetry has readmitted them yet.
  std::size_t unresponsive_nodes = 0;

  /// Power the system must shed to re-enter green: max(0, P - P_L).
  [[nodiscard]] Watts required_saving() const;
  /// Lookup table id -> index into nodes (built lazily by callers that
  /// need it); provided here so every policy does not rebuild it.
  [[nodiscard]] const NodeView* node(hw::NodeId id) const;
  void index_nodes();  ///< must be called after filling `nodes`

 private:
  /// Flat id -> index table over the views' id span [min id, max id];
  /// rebuilt each cycle without allocating once it has grown to the
  /// working-set size.
  static constexpr std::uint32_t kNoIndex = 0xffffffffu;
  common::IdTable<std::uint32_t> node_index_;
};

/// Reusable, policy-owned working storage for select(). Every selection
/// policy starts the same way — find the jobs that still have at least
/// one throttleable node, with those nodes and their one-level saving —
/// and most then deduplicate nodes across the chosen jobs (the
/// Nodes(J_i) - A term of Algorithm 2). Doing that with per-call vectors
/// and a hash set allocated every yellow cycle; this scratch keeps one
/// flat node buffer (each job's throttleable nodes as a contiguous
/// range), one ref table, and an epoch-stamped visited array, all of
/// which reach a steady size and then never touch the allocator again.
class SelectionScratch {
 public:
  struct Ref {
    const JobView* job = nullptr;
    std::uint32_t begin = 0;  ///< node range [begin, end) into node_buf()
    std::uint32_t end = 0;
    Watts saving{0.0};   ///< Σ P(x) - P'(x) over the range
    /// Ranking key: ΔP^t(J) after build(); a policy ranked on another
    /// key (mean temperature, SLA class) overwrites it before ranking.
    double score = 0.0;
  };

  /// Rebuilds refs()/node_buf() from the context: one Ref per job with at
  /// least one throttleable node, in ctx.jobs order; savings accumulate
  /// in node order, exactly as the per-call version did.
  void build(const PolicyContext& ctx);

  /// Mutable so a collection can score and stable_sort the refs in place.
  [[nodiscard]] std::vector<Ref>& refs() { return refs_; }
  [[nodiscard]] const std::vector<hw::NodeId>& node_buf() const {
    return node_buf_;
  }

  /// Copies a ref's node range into a fresh result vector (select()
  /// returns ownership; everything up to that point stays in scratch).
  [[nodiscard]] std::vector<hw::NodeId> targets_of(const Ref& ref) const {
    return {node_buf_.begin() + ref.begin, node_buf_.begin() + ref.end};
  }

  /// Starts a new dedup round: after it, visit(id) returns true exactly
  /// once per id. Epoch stamps make this O(1) — no per-round clearing.
  void begin_visit() { ++epoch_; }
  bool visit(hw::NodeId id) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= seen_.size()) seen_.resize(idx + 1, 0);
    if (seen_[idx] == epoch_) return false;
    seen_[idx] = epoch_;
    return true;
  }

 private:
  std::vector<Ref> refs_;
  std::vector<hw::NodeId> node_buf_;
  /// seen_[id] == epoch_ means id was visited this round. A uint64 epoch
  /// never wraps, so stale stamps from old rounds are always distinct.
  std::vector<std::uint64_t> seen_;
  std::uint64_t epoch_ = 0;
};

class TargetSelectionPolicy {
 public:
  virtual ~TargetSelectionPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Returns ids of nodes to degrade by one level. Implementations must
  /// only return busy candidate nodes that are not already at the lowest
  /// level (a "valid target set selection policy" per §III.B), and must
  /// not return duplicates.
  virtual std::vector<hw::NodeId> select(const PolicyContext& ctx) = 0;

  /// Does this policy act on PolicyContext::forecast_power? Gates the
  /// engine's predictive elevation (a green cycle promoted to the yellow
  /// path because the forecast crosses P_L): elevating a reactive
  /// collection policy would hand it required_saving() == 0 and it would
  /// still grab its first whole job — throttling with nothing to save.
  [[nodiscard]] virtual bool forecast_driven() const { return false; }

  /// Internal controller state (e.g. a PI integral) as a flat double
  /// vector for warm restart; stateless policies return {}. A restored
  /// policy must continue bit-identically.
  [[nodiscard]] virtual std::vector<double> checkpoint_state() const {
    return {};
  }
  virtual void restore_state(const std::vector<double>& state) {
    (void)state;
  }
};

using PolicyPtr = std::unique_ptr<TargetSelectionPolicy>;

}  // namespace pcap::power
