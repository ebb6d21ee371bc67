// Persistent job -> candidate-node index for the control plane.
//
// The manager's context assembly needs, per running job, the job's nodes
// restricted to A_candidate. Rebuilding that from
// scheduler.running_jobs() x job->nodes() costs one hash probe per job
// plus a full membership scan per node on every non-green cycle; at
// Tianhe-1A candidate counts that rebuild rivals the telemetry sweep
// itself. This index instead mirrors the scheduler's running set
// incrementally: it replays the scheduler's append-only JobEvent log from
// a cursor (O(churn) per cycle, not O(jobs)), filters each job's node
// list once at start, and refilters against the candidate set only when
// the set actually changes. It keeps only the filtered list: a job's
// placement is immutable and the scheduler keeps it, so a refilter reads
// it from there instead of every index (one per zone shard) holding its
// own copy.
//
// Invariants (pinned by tests/test_job_index.cpp):
//   * entries() mirrors scheduler.running_jobs() element-for-element, in
//     order, after every sync() — starts append, finishes erase in place.
//   * Entry::candidate_nodes is Nodes(J) ∩ A_candidate in Nodes(J) order —
//     the exact order the serial rebuild aggregated per-job power in, so
//     the switch to the index cannot move a single floating-point add.
//   * Entry capacity is recycled through a spare pool: steady-state churn
//     allocates nothing once the working set has been seen.
#pragma once

#include <cstddef>
#include <vector>

#include "common/id_table.hpp"
#include "hw/node.hpp"
#include "sched/scheduler.hpp"
#include "workload/job.hpp"

namespace pcap::power {

class JobIndex {
 public:
  struct Entry {
    workload::JobId id = 0;
    /// Nodes(J) ∩ A_candidate, preserving Nodes(J) order.
    std::vector<hw::NodeId> candidate_nodes;
  };

  /// Declares A_candidate. Marks every entry's filtered list dirty; the
  /// refilter itself happens on the next sync(), once.
  void set_candidate_set(const std::vector<hw::NodeId>& candidates);

  /// Replays scheduler events past the cursor and refilters after
  /// candidate churn. Idempotent: calling twice without intervening
  /// scheduler activity is a no-op.
  void sync(const sched::Scheduler& scheduler);

  /// One entry per running job, in scheduler running order (valid after
  /// sync()).
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Events consumed so far (diagnostics / tests).
  [[nodiscard]] std::size_t event_cursor() const { return event_cursor_; }

 private:
  /// Refills entry.candidate_nodes from the job's placement, `nodes`.
  void refilter(Entry& entry, const std::vector<hw::NodeId>& nodes) const;
  [[nodiscard]] bool is_candidate(hw::NodeId id) const {
    const unsigned char* member = is_candidate_.find(id);
    return member != nullptr && *member != 0;
  }

  std::vector<Entry> entries_;
  std::vector<Entry> spare_;  ///< retired entries, kept for their capacity
  std::size_t event_cursor_ = 0;
  /// Node id -> membership, over the candidates' id span.
  common::IdTable<unsigned char> is_candidate_;
  bool filter_dirty_ = false;
};

}  // namespace pcap::power
