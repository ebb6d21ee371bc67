// FCFS cluster job scheduler with whole-node allocation.
//
// The scheduler owns all jobs through their lifetime (queued -> running ->
// finished) and tracks which node hosts which job. The paper's protocol
// loads jobs "as soon as the required hardware resource is available"; this
// is plain FCFS — optionally with backfill so a wide job at the head does
// not idle the machine (off by default to match the paper's description).
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "sched/allocation.hpp"
#include "workload/job.hpp"

namespace pcap::sched {

/// One entry in the scheduler's append-only lifecycle log. Consumers (the
/// power manager's job index) keep a cursor into the log and replay only
/// the suffix each control cycle, so tracking membership of the running
/// set costs O(churn) instead of O(running jobs) per cycle.
struct JobEvent {
  enum class Kind : std::uint8_t { kStarted, kFinished };
  Kind kind = Kind::kStarted;
  workload::JobId id = 0;
};

struct SchedulerOptions {
  AllocationStrategy strategy = AllocationStrategy::kFirstFit;
  bool backfill = false;  ///< allow jobs behind a blocked head to start
  /// Max MPI ranks per node (0 = pack up to the core count). Wide
  /// placements (small values) match memory-bandwidth-bound MPI codes.
  int max_procs_per_node = 0;
};

class Scheduler {
 public:
  /// `cores_per_node[i]` is node i's core count; node ids are dense
  /// [0, cores_per_node.size()).
  Scheduler(std::vector<int> cores_per_node, SchedulerOptions options,
            common::Rng rng);

  // -- submission & launch ---------------------------------------------------
  /// Enqueues a job (must be in the queued state). Returns its id.
  workload::JobId submit(workload::Job job);

  /// Starts as many queued jobs as resources allow (FCFS order; with
  /// backfill, later jobs may jump a blocked head). Returns started ids.
  std::vector<workload::JobId> try_launch(Seconds now);

  /// Marks a running job finished is handled by the caller advancing the
  /// job; this releases its nodes afterwards.
  void release(workload::JobId id);

  // -- queries -----------------------------------------------------------------
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] std::size_t running_count() const { return running_.size(); }
  [[nodiscard]] std::size_t finished_count() const { return finished_.size(); }
  [[nodiscard]] int total_nodes() const {
    return static_cast<int>(cores_per_node_.size());
  }
  /// Largest job (in processes) this cluster can ever host, honouring the
  /// per-node rank cap.
  [[nodiscard]] int max_job_width() const { return max_job_width_; }

  [[nodiscard]] const std::vector<workload::JobId>& running_jobs() const {
    return running_;
  }
  /// Append-only start/finish log, in the exact order running_jobs()
  /// mutated: replaying it from any cursor reconstructs the running set
  /// (and its order) at that point. One entry per job lifecycle edge —
  /// a few bytes per job, never compacted.
  [[nodiscard]] const std::vector<JobEvent>& job_events() const {
    return events_;
  }
  [[nodiscard]] const std::vector<workload::JobId>& finished_jobs() const {
    return finished_;
  }

  /// nullptr if unknown id.
  [[nodiscard]] workload::Job* find(workload::JobId id);
  [[nodiscard]] const workload::Job* find(workload::JobId id) const;

  /// Job currently occupying a node, if any.
  [[nodiscard]] std::optional<workload::JobId> job_on_node(
      hw::NodeId node) const;

  /// Moves a just-finished job from running to finished and frees nodes.
  /// The job must have state kFinished.
  void on_job_finished(workload::JobId id);

 private:
  bool try_start(workload::Job& job, Seconds now);
  /// Removes `taken` (a successful allocation's nodes) from free_ids_.
  void remove_from_free(const std::vector<hw::NodeId>& taken);

  std::vector<int> cores_per_node_;
  SchedulerOptions options_;
  Allocator allocator_;

  std::unordered_map<workload::JobId, workload::Job> jobs_;
  std::deque<workload::JobId> queue_;
  std::vector<workload::JobId> running_;
  std::vector<workload::JobId> finished_;
  std::vector<JobEvent> events_;
  std::vector<std::optional<workload::JobId>> node_owner_;
  /// Most processes any single node can host under the rank cap —
  /// ceil(nprocs / this) lower-bounds the node count a job needs.
  int max_procs_one_node_ = 1;
  /// Sum of the capped per-node rank counts, fixed at construction.
  int max_job_width_ = 0;
  /// Ascending ids of all unowned nodes, maintained incrementally.
  /// The live region is [free_head_, size): first-fit consumes exactly the
  /// lowest free ids, so a launch retires a prefix by advancing the head
  /// cursor (O(job width)); releases merge into the live tail; the dead
  /// prefix is compacted away once it outgrows the live region (amortized
  /// O(1) per launch). Identical ordering to the owner scan this replaced,
  /// so allocations are unchanged.
  std::vector<hw::NodeId> free_ids_;
  std::size_t free_head_ = 0;
  std::vector<hw::NodeId> freed_scratch_;
};

}  // namespace pcap::sched
