// A job: one submitted run of an application on a set of nodes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "hw/node.hpp"
#include "workload/app_model.hpp"

namespace pcap::workload {

using JobId = std::uint64_t;

enum class JobState { kQueued, kRunning, kFinished };

/// §II.A: jobs that are "urgent, of high priority in real-time systems,
/// or critical to the system's performance" make their nodes privileged —
/// such nodes must never be degraded and are excluded from A_candidate.
enum class JobPriority { kNormal, kPrivileged };

class Job {
 public:
  Job(JobId id, AppModel app, int nprocs, Seconds submit_time,
      JobPriority priority = JobPriority::kNormal);

  [[nodiscard]] JobId id() const { return id_; }
  [[nodiscard]] const AppModel& app() const { return app_; }
  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] JobState state() const { return state_; }
  [[nodiscard]] JobPriority priority() const { return priority_; }
  [[nodiscard]] bool privileged() const {
    return priority_ == JobPriority::kPrivileged;
  }

  [[nodiscard]] Seconds submit_time() const { return submit_time_; }
  [[nodiscard]] Seconds start_time() const { return start_time_; }
  [[nodiscard]] Seconds finish_time() const { return finish_time_; }

  /// Full-speed (uncapped) duration T_j — the paper's baseline for the
  /// Performance(cap) metric and CPLJ.
  [[nodiscard]] Seconds baseline_duration() const {
    return Seconds{app_.duration_at(nprocs_)};
  }
  /// Actual running time T_cap,j (finish - start); only valid when
  /// finished.
  [[nodiscard]] Seconds actual_duration() const;

  // -- lifecycle -------------------------------------------------------------
  /// Transition queued -> running on the given nodes at time `now`.
  /// `procs_per_node[i]` processes are placed on `nodes[i]`; the placement
  /// must cover exactly nprocs() processes.
  void start(std::vector<hw::NodeId> nodes, std::vector<int> procs_per_node,
             Seconds now);

  /// Advances execution by wall-clock dt at the given progress rate
  /// (<= 1; the bottleneck-node rate). Returns true if the job finished
  /// during this step; `now_end` is the wall-clock time at the end of the
  /// step, used to interpolate the precise finish time.
  bool advance(Seconds dt, double progress_rate, Seconds now_end);

  /// Full-speed seconds of execution completed so far.
  [[nodiscard]] double progress_seconds() const { return progress_s_; }
  /// Phase currently executing (by progress position).
  [[nodiscard]] const Phase& current_phase() const;

  [[nodiscard]] const std::vector<hw::NodeId>& nodes() const { return nodes_; }
  /// Processes placed on nodes()[i]; parallel to nodes().
  [[nodiscard]] const std::vector<int>& placement() const {
    return procs_per_node_;
  }

 private:
  JobId id_;
  AppModel app_;
  int nprocs_;
  JobPriority priority_;
  Seconds submit_time_;
  Seconds start_time_{0.0};
  Seconds finish_time_{0.0};
  JobState state_ = JobState::kQueued;
  std::vector<hw::NodeId> nodes_;
  std::vector<int> procs_per_node_;
  double progress_s_ = 0.0;
  double duration_s_;
};

}  // namespace pcap::workload
