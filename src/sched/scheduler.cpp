#include "sched/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace pcap::sched {

using workload::Job;
using workload::JobId;
using workload::JobState;

Scheduler::Scheduler(std::vector<int> cores_per_node, SchedulerOptions options,
                     common::Rng rng)
    : cores_per_node_(std::move(cores_per_node)),
      options_(options),
      allocator_(options.strategy, rng),
      node_owner_(cores_per_node_.size()) {
  if (cores_per_node_.empty()) {
    throw std::invalid_argument("Scheduler: no nodes");
  }
  for (int c : cores_per_node_) {
    if (c <= 0) throw std::invalid_argument("Scheduler: bad core count");
  }
  free_ids_.resize(cores_per_node_.size());
  for (std::size_t i = 0; i < free_ids_.size(); ++i) {
    free_ids_[i] = static_cast<hw::NodeId>(i);
  }
  for (const int cores : cores_per_node_) {
    const int cap = options_.max_procs_per_node > 0
                        ? std::min(cores, options_.max_procs_per_node)
                        : cores;
    max_procs_one_node_ = std::max(max_procs_one_node_, cap);
  }
}

JobId Scheduler::submit(Job job) {
  if (job.state() != JobState::kQueued) {
    throw std::invalid_argument("Scheduler::submit: job not queued");
  }
  if (job.nprocs() > max_job_width()) {
    throw std::invalid_argument(
        "Scheduler::submit: job wider than the machine");
  }
  const JobId id = job.id();
  if (!jobs_.emplace(id, std::move(job)).second) {
    throw std::invalid_argument("Scheduler::submit: duplicate job id");
  }
  queue_.push_back(id);
  return id;
}

std::vector<JobId> Scheduler::try_launch(Seconds now) {
  std::vector<JobId> started;
  for (auto it = queue_.begin(); it != queue_.end();) {
    Job& job = jobs_.at(*it);
    if (try_start(job, now)) {
      started.push_back(*it);
      running_.push_back(*it);
      events_.push_back(JobEvent{JobEvent::Kind::kStarted, *it});
      it = queue_.erase(it);
    } else if (options_.backfill) {
      ++it;  // head blocked; look further down the queue
    } else {
      break;  // strict FCFS: stop at the first job that cannot start
    }
  }
  return started;
}

bool Scheduler::try_start(Job& job, Seconds now) {
  // O(1) feasibility gate before touching the allocator: a job needing
  // more nodes than are free can never place, so a saturated machine with
  // a deep queue pays nothing per blocked attempt. This also skips the
  // allocator's shuffle draw under the random strategy, so random
  // placement streams differ from the ungated scheduler — consistently
  // across serial/parallel and quiescence modes.
  const auto min_nodes = static_cast<std::size_t>(
      (job.nprocs() + max_procs_one_node_ - 1) / max_procs_one_node_);
  if (min_nodes > free_ids_.size() - free_head_) return false;
  const auto alloc = allocator_.allocate(
      std::span<const hw::NodeId>(free_ids_).subspan(free_head_),
      cores_per_node_, job.nprocs(), options_.max_procs_per_node);
  if (!alloc) return false;
  for (const hw::NodeId id : alloc->nodes) node_owner_[id] = job.id();
  remove_from_free(alloc->nodes);
  job.start(alloc->nodes, alloc->procs_per_node, now);
  return true;
}

void Scheduler::remove_from_free(const std::vector<hw::NodeId>& taken) {
  // First-fit consumes the lowest free ids, i.e. exactly the first |taken|
  // live entries: retire them by advancing the head cursor instead of
  // rewriting the list (the fill phase of a large machine launches onto a
  // huge free pool every tick — this is what keeps that O(job width)).
  if (free_head_ + taken.size() <= free_ids_.size() &&
      std::equal(taken.begin(), taken.end(),
                 free_ids_.begin() + static_cast<std::ptrdiff_t>(free_head_))) {
    free_head_ += taken.size();
    if (free_head_ > free_ids_.size() - free_head_) {
      // Dead prefix outgrew the live region; fold it away now so the
      // amortized cost per launch stays constant.
      free_ids_.erase(free_ids_.begin(),
                      free_ids_.begin() +
                          static_cast<std::ptrdiff_t>(free_head_));
      free_head_ = 0;
    }
    return;
  }
  // Random placement scatters: one compact pass over the (sorted) live
  // region, skipping the sorted taken ids — every taken id came from
  // free_ids_, so the two-pointer walk consumes both lists exactly.
  freed_scratch_ = taken;
  std::sort(freed_scratch_.begin(), freed_scratch_.end());
  std::size_t t = 0;
  std::size_t write = free_head_;
  for (std::size_t r = free_head_; r < free_ids_.size(); ++r) {
    if (t < freed_scratch_.size() && free_ids_[r] == freed_scratch_[t]) {
      ++t;
      continue;
    }
    free_ids_[write++] = free_ids_[r];
  }
  free_ids_.resize(write);
}

int Scheduler::max_job_width() const {
  int width = 0;
  for (const int cores : cores_per_node_) {
    width += options_.max_procs_per_node > 0
                 ? std::min(cores, options_.max_procs_per_node)
                 : cores;
  }
  return width;
}

Job* Scheduler::find(JobId id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

const Job* Scheduler::find(JobId id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

std::optional<JobId> Scheduler::job_on_node(hw::NodeId node) const {
  if (node >= node_owner_.size()) return std::nullopt;
  return node_owner_[node];
}

void Scheduler::release(JobId id) {
  // A job knows its own placement, so releasing walks |nodes(J)| entries
  // instead of the whole machine. Fall back to the full scan only for an
  // id the scheduler never saw (defensive; keeps the old contract).
  if (const Job* job = find(id)) {
    freed_scratch_.clear();
    for (const hw::NodeId nid : job->nodes()) {
      if (nid < node_owner_.size() && node_owner_[nid] == id) {
        node_owner_[nid].reset();
        freed_scratch_.push_back(nid);
      }
    }
    std::sort(freed_scratch_.begin(), freed_scratch_.end());
    const std::size_t mid = free_ids_.size();
    free_ids_.insert(free_ids_.end(), freed_scratch_.begin(),
                     freed_scratch_.end());
    std::inplace_merge(free_ids_.begin() +
                           static_cast<std::ptrdiff_t>(free_head_),
                       free_ids_.begin() + static_cast<std::ptrdiff_t>(mid),
                       free_ids_.end());
    return;
  }
  free_ids_.clear();
  free_head_ = 0;
  for (std::size_t i = 0; i < node_owner_.size(); ++i) {
    if (node_owner_[i] == id) node_owner_[i].reset();
    if (!node_owner_[i]) free_ids_.push_back(static_cast<hw::NodeId>(i));
  }
}

void Scheduler::on_job_finished(JobId id) {
  Job* job = find(id);
  if (job == nullptr || job->state() != JobState::kFinished) {
    throw std::logic_error("Scheduler::on_job_finished: job not finished");
  }
  release(id);
  const auto it = std::find(running_.begin(), running_.end(), id);
  if (it == running_.end()) {
    throw std::logic_error("Scheduler::on_job_finished: job not running");
  }
  running_.erase(it);
  finished_.push_back(id);
  events_.push_back(JobEvent{JobEvent::Kind::kFinished, id});
}

}  // namespace pcap::sched
