// Manager-side actuation reconciliation: closing the loop around an
// actuator that lies.
//
// With a lossy command channel the manager can no longer assume a sent
// LevelCommand happened. The reconciler keeps a believed-level shadow
// table per node and treats the next cycles' telemetry as the ack stream:
//
//   sent command  -> pending{target, issued_cycle, retry budget}
//   fresh sample showing the target level, taken after the command was
//     issued                      -> ack (believed := observed)
//   no ack by the backoff horizon -> retry, with capped exponential
//     backoff, up to max_retries
//   retry budget exhausted        -> abandon: the node is marked
//     unresponsive, dropped from the candidate context (and therefore
//     from A_degraded and target selection) with a counted warning
//   fresh sample from an unresponsive node -> readmit: believed adopts
//     the observed level — we give up on our old intent and accept the
//     node's actual state
//   fresh sample disagreeing with believed, with nothing pending
//     (reboot reset, partial transition, operator intervention)
//                                 -> divergence: emit a healing command
//     back to the believed level and track it like any other command
//
// Safe-side power accounting lives in the manager's context build, keyed
// off this table: an unacked throttle claims zero savings until its ack
// arrives; an unacked restore is assumed already applied when computing
// headroom. Both errors overestimate draw — capping stays conservative.
//
// The reconciler is plain serial state driven from the manager's control
// cycle; determinism falls out of every sweep running in ascending
// node-id order.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/id_table.hpp"
#include "hw/node.hpp"
#include "power/capping.hpp"

namespace pcap::power {

struct ReconcilerCheckpoint;  // power/checkpoint.hpp

struct ReconcilerParams {
  /// A command unacked past its backoff horizon is re-sent at most this
  /// many times before the node is declared unresponsive.
  int max_retries = 5;
  /// First retry fires this many control cycles after issue; each further
  /// retry doubles the wait. Keep this above the telemetry ack latency
  /// (actuation delay + one collection cycle) or healthy-but-slow acks
  /// get needlessly re-sent.
  int retry_backoff_base_cycles = 2;
  /// Ceiling on the doubled backoff, in cycles.
  int retry_backoff_cap_cycles = 16;

  /// Throws std::invalid_argument on out-of-range values.
  void validate() const;
};

class ActuationReconciler {
 public:
  /// Everything one control cycle's reconciliation produced: commands to
  /// (re-)send and tallies for the manager's report.
  struct CycleWork {
    std::vector<LevelCommand> commands;  ///< heals + retries + admitted
    std::size_t acks = 0;
    std::size_t retries = 0;
    std::size_t divergences = 0;
    std::size_t heals = 0;
    std::size_t abandoned = 0;
    std::size_t suppressed = 0;  ///< commands dropped: node unresponsive
    std::size_t readmitted = 0;
    /// Watchdog-changed levels adopted as reality this cycle (node, the
    /// level it was observed at). The manager feeds these into
    /// CappingEngine::adopt_degraded so steady-green restores them.
    std::vector<LevelCommand> adopted_nodes;
    void clear();
  };

  explicit ActuationReconciler(ReconcilerParams params);

  /// Feeds one node's freshest plausible telemetry into the ack/divergence
  /// machinery. `sample_cycle` is the collection cycle the sample was
  /// taken in (acks require it strictly newer than the command's issue
  /// cycle — a sample taken before the command left cannot confirm it);
  /// observations not strictly newer than what the table has already seen
  /// for this node are ignored (a re-surfaced old sample must not fake a
  /// divergence). `now_cycle` stamps any healing command this observation
  /// triggers. Call only with fresh (non-stale) views — acking against
  /// ancient data would confirm commands that never landed.
  void observe_node(hw::NodeId id, hw::Level observed,
                    std::uint64_t sample_cycle, std::uint64_t now_cycle,
                    CycleWork& work);

  /// Adopts a node's observed level as the new believed truth — the
  /// failsafe watchdog changed it during a controller outage, so the
  /// divergence machinery must NOT heal it back up. Unlike a readmission,
  /// adoption also cancels any pending command (the watchdog stomped
  /// whatever the old intent was; retrying it later would raise a node
  /// the failsafe deliberately lowered) and clears unresponsive state.
  /// The adopted (node, level) is appended to `work.adopted_nodes`.
  void adopt_reality(hw::NodeId id, hw::Level observed,
                     std::uint64_t sample_cycle, CycleWork& work);

  /// After all observations for the cycle: emits due retries into
  /// `work.commands` and abandons commands whose retry budget ran out.
  void finish_observation(std::uint64_t cycle, CycleWork& work);

  /// Filters and registers this cycle's newly decided commands, appending
  /// the accepted ones to `work.commands`. Commands to unresponsive nodes
  /// are dropped (counted as suppressed); a command repeating an already-
  /// pending target is dropped too (the retry machinery owns it); a
  /// command superseding a pending one with a different target replaces
  /// it and resets the retry budget.
  void admit(const std::vector<LevelCommand>& decided, std::uint64_t cycle,
             CycleWork& work);

  /// Unacked command outstanding for this node?
  [[nodiscard]] bool in_flight(hw::NodeId id) const {
    const Slot* s = find_slot(id);
    return s != nullptr && s->has_pending;
  }
  /// Target level of the outstanding command, if any. Inline: the
  /// context merge asks once per candidate slot per build.
  [[nodiscard]] std::optional<hw::Level> pending_target(hw::NodeId id) const {
    const Slot* s = find_slot(id);
    if (s == nullptr || !s->has_pending) return std::nullopt;
    return s->pending_target;
  }
  /// Last confirmed level, or `fallback` if the node was never observed.
  [[nodiscard]] hw::Level believed(hw::NodeId id, hw::Level fallback) const;
  [[nodiscard]] bool unresponsive(hw::NodeId id) const {
    const Slot* s = find_slot(id);
    return s != nullptr && s->unresponsive;
  }

  [[nodiscard]] std::size_t pending_count() const { return pending_count_; }
  [[nodiscard]] std::size_t unresponsive_count() const {
    return unresponsive_count_;
  }

  // Cumulative counters over the reconciler's lifetime.
  [[nodiscard]] std::uint64_t total_acks() const { return acks_; }
  [[nodiscard]] std::uint64_t total_retries() const { return retries_; }
  [[nodiscard]] std::uint64_t total_abandoned() const { return abandoned_; }
  [[nodiscard]] std::uint64_t total_readmitted() const { return readmitted_; }
  [[nodiscard]] std::uint64_t total_adopted() const { return adopted_; }

  [[nodiscard]] const ReconcilerParams& params() const { return params_; }

  /// Captures the shadow tables for warm restart (non-empty slots only).
  /// Lifetime counters are process-scoped and not part of the image.
  [[nodiscard]] ReconcilerCheckpoint checkpoint() const;
  /// Rebuilds the shadow tables from a checkpoint; pending/unresponsive
  /// counts are recomputed from the restored slots.
  void restore(const ReconcilerCheckpoint& cp);

 private:
  /// Per-node reconciliation state, indexed directly by node id. The
  /// observe path runs once per candidate per non-green cycle, so probes
  /// must be O(1) array hits, not tree walks. The table covers only the
  /// id span this reconciler has touched (40 bytes per id in it): a zone
  /// shard pays for its own zone's ids, not for every id below them.
  /// Widest fields first, so the three ints and three flags share the
  /// last two words instead of padding each 4-byte field to 8.
  struct Slot {
    std::uint64_t issued_cycle = 0;          ///< valid iff has_pending
    std::uint64_t next_retry_cycle = 0;      ///< valid iff has_pending
    std::uint64_t observed_cycle = 0;        ///< valid iff has_believed
    hw::Level pending_target = 0;            ///< valid iff has_pending
    int pending_retries = 0;                 ///< valid iff has_pending
    hw::Level believed_level = 0;            ///< valid iff has_believed
    bool has_pending = false;
    bool has_believed = false;
    bool unresponsive = false;
  };

  [[nodiscard]] const Slot* find_slot(hw::NodeId id) const {
    return slots_.find(id);
  }

  void register_pending(Slot& s, hw::Level target, std::uint64_t cycle);
  [[nodiscard]] std::uint64_t backoff(int retries) const;

  ReconcilerParams params_;
  // Every sweep over the table runs in ascending node-id order — the same
  // order the old ordered-map iteration produced — which keeps emitted
  // command order, and therefore whole runs, deterministic. touch(id)
  // widens the span to cover a new id (new slots are empty), so state
  // persists across candidate-set churn.
  common::IdTable<Slot> slots_;
  std::size_t pending_count_ = 0;
  std::size_t unresponsive_count_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t readmitted_ = 0;
  std::uint64_t adopted_ = 0;
};

}  // namespace pcap::power
