// Global telemetry collector.
//
// Samples every candidate node through the stateless agent sampler
// (telemetry/agent.hpp) and keeps a short history of samples per node so
// the manager can compute both state-based quantities (current estimated
// power) and change-based ones (ΔP between the last two samples, §IV.B).
// The candidate set can change at runtime (§II.A: the set "may vary during
// the execution of the system"). Agent noise and transport loss are
// counter-based draws keyed by (collector root, node id, cycle_count()):
// a skipped sweep moves no later draw. Only the fault processes carry
// per-node state from sweep to sweep.
//
// Agents report a NodeSample; the collector converts each report to a
// HeldSample once, after the fault injector has had its say and before
// the transport, so the in-flight queue and the history arena hold only
// the fields the manager reads.
//
// Per-candidate state is sized by the configured fault model. The history
// holds the newest two samples — all the manager ever reads — unless
// deliveries can be corrupted, when it holds `history_depth` so the
// manager's plausibility walk can look past corrupt entries. Loss, delay,
// dropout and crashes never make a delivered sample implausible, so they
// need no deeper window. The in-flight queue exists only when the
// transport delays reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/id_table.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/agent.hpp"
#include "telemetry/fault_injector.hpp"
#include "telemetry/management_cost.hpp"
#include "telemetry/sample.hpp"

namespace pcap::telemetry {

/// Management-plane transport model. Agent reports travel over the same
/// interconnect the jobs use; on a loaded fabric they arrive late or not
/// at all, and the manager must act on the freshest sample it has.
struct TransportParams {
  double loss_rate = 0.0;  ///< probability an agent report is dropped
  int delay_cycles = 0;    ///< cycles between sampling and delivery
};

struct CollectorParams {
  AgentParams agent;
  /// Samples kept per candidate when `faults.corruption_rate > 0`: the
  /// window the manager walks back through for the newest plausible
  /// sample. Without corruption every delivery is plausible, and the
  /// collector keeps only the newest two (latest and previous). Must lie in
  /// [2, UINT32_MAX].
  std::size_t history_depth = 8;
  ManagementCostParams cost;
  TransportParams transport;
  /// Agent dropout / node crash / sample corruption injection. All off by
  /// default; the healthy path pays nothing.
  FaultParams faults;
  /// Candidate-set size at which collect() fans the sweep out over the
  /// attached thread pool (no pool, or fewer candidates: serial). Every
  /// per-candidate draw is keyed by (node, cycle), so the sweep order —
  /// and therefore the worker count — cannot change the result.
  std::size_t parallel_threshold = 2048;
  /// Candidates per pool chunk in a parallel sweep.
  std::size_t parallel_grain = 256;
};

/// Read-only window over one node's sample history. Histories live in a
/// single depth-striped arena (`store[d * candidate_count + slot]`), so a
/// collect cycle writes one contiguous stripe instead of scattering into
/// per-node ring buffers; the view re-presents a slot's strided column
/// with the ring-buffer indexing consumers already use (oldest-first
/// operator[], front/back).
class SampleHistoryView {
 public:
  SampleHistoryView() = default;
  SampleHistoryView(const HeldSample* base, std::size_t stride,
                    std::uint32_t head, std::uint32_t size,
                    std::uint32_t depth)
      : base_(base), stride_(stride), head_(head), size_(size),
        depth_(depth) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return depth_; }
  /// k-th sample, oldest first (k < size()).
  [[nodiscard]] const HeldSample& operator[](std::size_t k) const {
    std::uint32_t stripe =
        head_ + depth_ - size_ + static_cast<std::uint32_t>(k);
    if (stripe >= depth_) stripe -= depth_;
    return base_[static_cast<std::size_t>(stripe) * stride_];
  }
  [[nodiscard]] const HeldSample& front() const { return (*this)[0]; }
  [[nodiscard]] const HeldSample& back() const { return (*this)[size_ - 1]; }

 private:
  const HeldSample* base_ = nullptr;
  std::size_t stride_ = 1;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t depth_ = 1;
};

class Collector {
 public:
  Collector(CollectorParams params, common::Rng rng);

  /// Replaces the candidate set; histories (and in-flight reports) of
  /// removed nodes are dropped, new nodes start with empty histories.
  void set_candidate_set(const std::vector<hw::NodeId>& nodes);
  [[nodiscard]] const std::vector<hw::NodeId>& candidate_set() const {
    return candidates_;
  }
  [[nodiscard]] bool is_candidate(hw::NodeId id) const {
    return slot_of(id) != kNoSlot;
  }

  /// Samples every candidate node present in `nodes` (indexed by id) and
  /// appends to histories. Also records the cost-model accounting for this
  /// cycle given the number of currently monitored jobs.
  void collect(const std::vector<hw::Node>& nodes, Seconds now,
               std::size_t monitored_jobs);

  /// Advances the collection clock without sweeping any agent — the
  /// manager's steady-green collect stride, its idle green cycles (which
  /// only occur under exact telemetry) and its training cycles. Sample
  /// ages and reconciler deadlines keep counting (they are denominated in
  /// cycles), but no agent samples, no transport draws, no fault-process
  /// steps happen.
  /// In-flight delayed reports stay queued; the manager only reads
  /// histories on cycles it collected, so deferring their delivery to the
  /// next real sweep is invisible. Cost accounting records a sweep of
  /// zero nodes (the manager woke up, decoded nothing).
  void skip_cycle(std::size_t monitored_jobs);

  /// Latest sample of a node; nullopt if never sampled / not a candidate.
  [[nodiscard]] std::optional<HeldSample> latest(hw::NodeId id) const;
  /// Sample before the latest one (for rate-of-change policies).
  [[nodiscard]] std::optional<HeldSample> previous(hw::NodeId id) const;
  /// A node's whole sample history in one lookup (nullopt if not a
  /// candidate) — the manager's context builder reads latest and previous
  /// together, and one slot probe beats two.
  [[nodiscard]] std::optional<SampleHistoryView> history(hw::NodeId id) const;
  /// History of candidate_set()[slot]. For sweeps that already walk the
  /// candidate array in order: indexes straight into the arena, no
  /// id->slot translation at all.
  [[nodiscard]] SampleHistoryView history_at_slot(std::size_t slot) const {
    return SampleHistoryView(hist_store_.data() + slot, hist_stride_,
                             hist_head_[slot], hist_size_[slot], hist_depth_);
  }
  /// Largest candidate id (0 when the set is empty). The candidate array
  /// is kept sorted, so consumers validate a whole sweep against a node
  /// table with one comparison instead of one bounds check per candidate.
  [[nodiscard]] hw::NodeId max_candidate_id() const {
    return candidates_.empty() ? hw::NodeId{0} : candidates_.back();
  }

  /// Whether agents read board temperatures (default on). Reading one
  /// fast-forwards the node's thermal state, so a manager whose policy
  /// never reads NodeView::temperature turns it off; samples then carry 0.
  void set_sample_temperature(bool on) { sample_temperature_ = on; }

  /// Attaches (or detaches, with nullptr) the pool used to parallelise
  /// collect(). The collector does not own the pool.
  void set_thread_pool(common::ThreadPool* pool) { pool_ = pool; }

  /// Always false: the collector samples every candidate every sweep.
  /// e2ebench reads it; it goes in the benchmark change that drops that
  /// per-layer metric.
  [[nodiscard]] bool dedup_active() const { return false; }

  /// Modelled CPU utilisation of the management node in the last cycle.
  [[nodiscard]] double last_cycle_manager_utilization() const {
    return last_manager_utilization_;
  }
  /// Reports dropped by the transport so far.
  [[nodiscard]] std::uint64_t samples_lost() const { return samples_lost_; }
  /// Reports delivered into histories so far.
  [[nodiscard]] std::uint64_t samples_delivered() const {
    return samples_delivered_;
  }
  /// Reports that never left their node (down agent / crashed node).
  [[nodiscard]] std::uint64_t samples_suppressed() const {
    return fault_injector_.samples_suppressed();
  }
  /// The fault process driving dropout/crash/corruption (counters live
  /// there; inert when params.faults is all-zero).
  [[nodiscard]] const FaultInjector& fault_injector() const {
    return fault_injector_;
  }
  /// Collection cycles run so far. Samples are stamped with the cycle at
  /// which they were taken, so `cycle_count() - sample.cycle` is a
  /// sample's age in cycles.
  [[nodiscard]] std::uint64_t cycle_count() const { return cycle_counter_; }
  [[nodiscard]] const ManagementCostModel& cost_model() const {
    return cost_model_;
  }
  void set_cycle_period(Seconds period) { cycle_period_ = period; }
  /// Warm restart: resumes the cycle clock from a checkpoint. Believed/
  /// observed stamps in the manager's reconciler are in this timebase, so
  /// a restarted collector restarting from zero would skew every ack and
  /// staleness comparison until the clock caught up. Noise and loss from
  /// cycle c + 1 on are those of the uninterrupted collector.
  void restore_cycle_count(std::uint64_t cycles) { cycle_counter_ = cycles; }

 private:
  struct InFlight {
    std::uint64_t deliver_at_cycle;
    HeldSample sample;
  };
  /// One candidate's sweep step: sample, faults, transport (loss/delay),
  /// deliver, under this cycle's noise and loss keys. Delivered/lost
  /// counts accumulate into the caller's locals so a sweep pays one atomic
  /// update per chunk instead of one per sample.
  void collect_one(std::size_t slot, const std::vector<hw::Node>& nodes,
                   Seconds now, std::uint64_t noise_key,
                   std::uint64_t loss_key, std::uint64_t& delivered,
                   std::uint64_t& lost);

  /// Appends a delivered sample to slot's history ring in the arena.
  void push_history(std::size_t slot, const HeldSample& s) {
    hist_store_[static_cast<std::size_t>(hist_head_[slot]) * hist_stride_ +
                slot] = s;
    const std::uint32_t next = hist_head_[slot] + 1;
    hist_head_[slot] = next == hist_depth_ ? 0 : next;
    if (hist_size_[slot] < hist_depth_) ++hist_size_[slot];
  }

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Slot index of a node in candidates_, or kNoSlot.
  [[nodiscard]] std::uint32_t slot_of(hw::NodeId id) const {
    const std::uint32_t* slot = slot_of_.find(id);
    return slot != nullptr ? *slot : kNoSlot;
  }

  CollectorParams params_;
  ManagementCostModel cost_model_;
  FaultInjector fault_injector_;
  /// Roots of the counter-keyed agent-noise and transport-loss draws.
  std::uint64_t noise_root_;
  std::uint64_t loss_root_;
  Seconds cycle_period_{1.0};
  common::ThreadPool* pool_ = nullptr;
  bool sample_temperature_ = true;
  std::vector<hw::NodeId> candidates_;
  /// Per-candidate sweep state below is aligned with candidates_: the
  /// sweep indexes straight into these arrays — no hash probe per sample —
  /// and two workers sampling different candidates share no state.
  /// slot_of_ maps a node id to its slot for the point lookups
  /// (history/latest/previous), over the candidates' id span only.
  /// Per-slot delayed reports, oldest first; empty unless delay_cycles > 0.
  /// A queue holds at most delay_cycles entries (each sweep queues one and
  /// delivers every report now due), so a vector with front erase is the
  /// whole FIFO.
  std::vector<std::vector<InFlight>> in_flight_;
  common::IdTable<std::uint32_t> slot_of_;
  /// Sample histories, depth-striped: stripe d of slot s lives at
  /// hist_store_[d * hist_stride_ + s]. Heads start aligned across slots,
  /// so the common collect cycle (every candidate delivers) writes one
  /// contiguous stripe of the arena — streaming stores instead of a
  /// dependent load per node into scattered per-node ring buffers, which
  /// is what dominated the sweep at 32k+ candidates. Loss/delay/faults
  /// only ever let individual heads fall behind; correctness never
  /// depends on the alignment.
  std::vector<HeldSample> hist_store_;
  std::vector<std::uint32_t> hist_head_;  ///< next stripe to write, per slot
  std::vector<std::uint32_t> hist_size_;  ///< samples held, per slot
  std::size_t hist_stride_ = 0;           ///< == candidates_.size()
  /// Samples held per slot: params_.history_depth when corruption is
  /// configured, else 2.
  std::uint32_t hist_depth_ = 2;
  std::uint64_t cycle_counter_ = 0;
  std::atomic<std::uint64_t> samples_lost_{0};
  std::atomic<std::uint64_t> samples_delivered_{0};
  double last_manager_utilization_ = 0.0;
};

}  // namespace pcap::telemetry
