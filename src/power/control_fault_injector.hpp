// Control-plane fault injection: the controller itself as a failure
// domain.
//
// PRs 2–3 hardened the manager against a telemetry plane that lies and an
// actuation plane that drops commands — but both assumed the control loop
// itself keeps running. At scale the management node is just another
// machine: the root learner blacks out, a zone shard's process crashes,
// or a control cycle stalls behind a GC pause / NFS hiccup. This injector
// drives those failure modes so the consuming layers (ZoneTreeManager
// and its shards, the node-local failsafe watchdog) can be exercised —
// and hardened — against a dead loop.
//
// Domains: one root controller plus zero or more zone shards. Each domain
// runs an independent outage process; the root additionally suffers short
// delay stalls (a stall is a mini-blackout counted separately — from the
// nodes' perspective the controller is simply silent either way).
//
// Determinism contract (mirrors telemetry::FaultInjector): every domain
// draws from its own RNG stream (root_.stream(domain)), so the root's
// outage schedule depends only on the seed and zone z's schedule only on
// (seed, z) — never on the zone count, the order domains are stepped, or
// whether other domains happened to fail. begin_cycle() is serial (called
// once from the top of the manager cycle); disabled params draw nothing,
// keeping the healthy path byte-for-byte what it was without an injector.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace pcap::power {

struct ControlFaultParams {
  /// Per-cycle probability that the live root controller blacks out
  /// (management node crash, controller process killed).
  double outage_rate = 0.0;
  /// How long a root blackout lasts, in control cycles.
  int outage_duration_cycles = 60;
  /// Per-cycle probability that a live zone shard crashes (per zone).
  double zone_outage_rate = 0.0;
  /// How long a zone-shard crash window lasts, in control cycles.
  int zone_outage_duration_cycles = 45;
  /// Per-cycle probability that a live root cycle stalls (scheduling
  /// jitter, GC pause): the controller skips 1..delay_max_cycles cycles.
  double delay_rate = 0.0;
  /// Upper bound on a stall, in control cycles.
  int delay_max_cycles = 3;

  /// True when any control-fault channel is active; the managers skip the
  /// injector entirely otherwise, keeping the healthy path unchanged.
  [[nodiscard]] bool enabled() const {
    return outage_rate > 0.0 || zone_outage_rate > 0.0 || delay_rate > 0.0;
  }
  /// Throws std::invalid_argument on out-of-range rates/durations.
  void validate() const;
};

class ControlFaultInjector {
 public:
  ControlFaultInjector(ControlFaultParams params, common::Rng rng);

  /// Registers the zone shards (domain z = zone z). Serial — call at
  /// construction / reconfiguration, never mid-cycle. Zone fault state
  /// persists if the count only grows.
  void ensure_zones(std::size_t zone_count);

  /// Advances every domain's fault process by one control cycle. Returns
  /// true when the ROOT controller is down (outage or stall) this cycle.
  /// With params disabled this is a constant false and draws nothing.
  bool begin_cycle();

  /// Forces a root blackout covering the next `cycles` begin_cycle()
  /// calls. A drill hook: deterministic, draws nothing, works even with
  /// all rates zero. Extends (never shortens) an already-open window.
  void inject_outage(int cycles);
  /// Forces zone shard z down for the next `cycles` begin_cycle() calls.
  void inject_zone_outage(std::size_t z, int cycles);

  /// Root down this cycle (valid after begin_cycle)?
  [[nodiscard]] bool root_down() const { return root_down_; }
  /// Zone shard z down this cycle (valid after begin_cycle)?
  [[nodiscard]] bool zone_down(std::size_t z) const {
    return z < zones_.size() && zones_[z].down_now;
  }
  /// Number of zone shards down this cycle.
  [[nodiscard]] std::size_t zones_down() const { return zones_down_now_; }

  // Cumulative ground-truth counters over the injector's lifetime.
  [[nodiscard]] std::uint64_t outages_started() const {
    return outages_started_;
  }
  [[nodiscard]] std::uint64_t outage_cycles() const { return outage_cycles_; }
  [[nodiscard]] std::uint64_t delayed_cycles() const {
    return delayed_cycles_;
  }
  [[nodiscard]] std::uint64_t zone_outages_started() const {
    return zone_outages_started_;
  }
  [[nodiscard]] std::uint64_t zone_outage_cycles() const {
    return zone_outage_cycles_;
  }

  [[nodiscard]] const ControlFaultParams& params() const { return params_; }

 private:
  /// One domain's fault process. Stepped once per begin_cycle().
  struct Domain {
    common::Rng rng{0};
    int down_cycles_left = 0;  ///< remaining cycles of the open window
    bool stalled = false;      ///< open window is a delay, not an outage
    bool down_now = false;     ///< disposition of the current cycle
  };

  /// Advances one domain; returns whether it is down this cycle.
  bool step(Domain& d, bool is_root);

  ControlFaultParams params_;
  common::Rng root_;  ///< stream parent only; never drawn from directly
  Domain root_domain_;
  std::vector<Domain> zones_;
  bool forced_active_ = false;  ///< an injected window may still be open
  bool root_down_ = false;
  std::size_t zones_down_now_ = 0;
  std::uint64_t outages_started_ = 0;
  std::uint64_t outage_cycles_ = 0;
  std::uint64_t delayed_cycles_ = 0;
  std::uint64_t zone_outages_started_ = 0;
  std::uint64_t zone_outage_cycles_ = 0;
};

}  // namespace pcap::power
