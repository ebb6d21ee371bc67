#include "workload/job.hpp"

#include <algorithm>
#include <stdexcept>

namespace pcap::workload {

Job::Job(JobId id, AppModel app, int nprocs, Seconds submit_time,
         JobPriority priority)
    : id_(id),
      app_(std::move(app)),
      nprocs_(nprocs),
      priority_(priority),
      submit_time_(submit_time),
      duration_s_(0.0) {
  if (nprocs_ <= 0) throw std::invalid_argument("Job: nprocs <= 0");
  app_.validate();
  duration_s_ = app_.duration_at(nprocs_);
}

Seconds Job::actual_duration() const {
  if (state_ != JobState::kFinished) {
    throw std::logic_error("Job::actual_duration: job not finished");
  }
  return finish_time_ - start_time_;
}

void Job::start(std::vector<hw::NodeId> nodes, std::vector<int> procs_per_node,
                Seconds now) {
  if (state_ != JobState::kQueued) {
    throw std::logic_error("Job::start: job not queued");
  }
  if (nodes.empty()) throw std::invalid_argument("Job::start: no nodes");
  if (procs_per_node.size() != nodes.size()) {
    throw std::invalid_argument("Job::start: placement size mismatch");
  }
  int total = 0;
  for (int p : procs_per_node) {
    if (p <= 0) throw std::invalid_argument("Job::start: empty placement slot");
    total += p;
  }
  if (total != nprocs_) {
    throw std::invalid_argument("Job::start: placement does not cover nprocs");
  }
  nodes_ = std::move(nodes);
  procs_per_node_ = std::move(procs_per_node);
  start_time_ = now;
  state_ = JobState::kRunning;
}

bool Job::advance(Seconds dt, double progress_rate, Seconds now_end) {
  if (state_ != JobState::kRunning) {
    throw std::logic_error("Job::advance: job not running");
  }
  if (dt < Seconds{0.0} || progress_rate < 0.0) {
    throw std::invalid_argument("Job::advance: negative step");
  }
  const double gained = dt.value() * progress_rate;
  const double before = progress_s_;
  progress_s_ = std::min(progress_s_ + gained, duration_s_);
  if (progress_s_ >= duration_s_) {
    // Interpolate the finish instant inside the step.
    const double needed = duration_s_ - before;
    const double frac = gained > 0.0 ? needed / gained : 0.0;
    finish_time_ = now_end - dt * (1.0 - frac);
    state_ = JobState::kFinished;
    return true;
  }
  return false;
}

const Phase& Job::current_phase() const { return app_.phase_at(progress_s_); }

}  // namespace pcap::workload
