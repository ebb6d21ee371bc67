// Controller checkpoint/warm-restart (§II carried into the failure
// domain).
//
// A restarted controller that relearns thresholds from scratch spends a
// whole training period uncapped — at 93 % provisioning that is an
// unacceptable window. These structs capture the control plane's learned
// and believed state — threshold learner window, Algorithm 1's A_degraded
// and green timer, the reconciler's shadow tables, the collector's cycle
// clock, and each zone's last-known power — so a fresh manager restored
// from a checkpoint resumes capped behaviour on its first cycle, and
// still charges a zone that crashes before its next build at the power it
// last drew.
//
// Encoding is line-oriented text with doubles in C99 hexfloat ("%a"), so
// a decode → encode round trip is bit-exact: the restored learner
// thresholds are the checkpointed ones to the last ulp, which is what
// makes warm-restart runs bit-identical across worker counts and across
// the save/load boundary. Not checkpointed (by design): RNG fault-stream
// positions (the injectors model the outside world, which does not
// rewind), policy selection scratch (rebuilt from the first context), and
// lifetime observability counters (process-scoped, a restart starts new
// series).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/node.hpp"

namespace pcap::power {

struct LearnerCheckpoint {
  double p_peak = 0.0;
  double running_peak = 0.0;
  double window_peak = 0.0;
  std::int64_t cycles = 0;
  std::int64_t cycles_since_adjust = 0;
  std::int64_t adjustments = 0;
  bool frozen = false;
  /// Training ended early via set_manual_peak().
  bool training_done = false;
};

struct EngineCheckpoint {
  std::int64_t time_g = 0;
  std::vector<hw::NodeId> degraded;  ///< A_degraded, ascending
};

struct ReconcilerSlotCheckpoint {
  hw::NodeId node = 0;
  hw::Level pending_target = 0;
  std::uint64_t issued_cycle = 0;
  std::uint64_t next_retry_cycle = 0;
  int pending_retries = 0;
  hw::Level believed_level = 0;
  std::uint64_t observed_cycle = 0;
  bool has_pending = false;
  bool has_believed = false;
  bool unresponsive = false;
};

struct ReconcilerCheckpoint {
  /// Non-empty slots only, ascending node id.
  std::vector<ReconcilerSlotCheckpoint> slots;
};

/// One zone shard's restorable state. The learner and predictor images
/// are the tree root's and live in TreeCheckpoint.
struct ShardCheckpoint {
  EngineCheckpoint engine;
  ReconcilerCheckpoint reconciler;
  /// Collector cycle clock: believed/observed stamps above are in this
  /// timebase, so the restored collector must resume from it or every
  /// ack comparison would be skewed.
  std::uint64_t collector_cycles = 0;
  /// Opaque TargetSelectionPolicy::checkpoint_state() image; empty for
  /// stateless policies. Carries e.g. PI-C's integral term.
  std::vector<double> policy_state;
};

/// What the root accounts a zone at while it is down: its last-known
/// context power, or, when it never completed a build, its members'
/// theoretical max draw (re-derived on restore, not carried).
struct ZoneCheckpoint {
  double power = 0.0;
  bool ever_measured = false;
};

/// The whole tree: root learner and predictor + per-shard state +
/// per-zone orphan accounting (power 0, never measured, at Z = 1).
struct TreeCheckpoint {
  /// Name of the target-selection policy that wrote the image (one token,
  /// e.g. "mpc-c"). The per-shard policy_state is that policy's, so a
  /// tree running another policy must not restore it.
  std::string policy;
  LearnerCheckpoint learner;  ///< the tree root's (only) learner
  std::vector<ShardCheckpoint> shards;
  std::vector<ZoneCheckpoint> zones;  ///< parallel to shards
  /// Opaque PowerPredictor::checkpoint_state() image; empty when the root
  /// runs without a predictor. A warm-restarted predictor must resume
  /// bit-identically or the first post-restart forecast (and thus the
  /// first predictive elevation) would diverge from the uninterrupted run.
  std::vector<double> predictor_state;
};

// Text codec. encode_checkpoint throws std::runtime_error when the policy
// name is not one non-empty token; decode_tree_checkpoint throws it on a
// malformed or version-mismatched image.
[[nodiscard]] std::string encode_checkpoint(const TreeCheckpoint& cp);
[[nodiscard]] TreeCheckpoint decode_tree_checkpoint(const std::string& text);

}  // namespace pcap::power
