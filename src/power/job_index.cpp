#include "power/job_index.hpp"

#include <algorithm>
#include <utility>

namespace pcap::power {

void JobIndex::set_candidate_set(const std::vector<hw::NodeId>& candidates) {
  if (candidates.empty()) {
    is_candidate_.clear();
  } else {
    const auto [lo, hi] =
        std::minmax_element(candidates.begin(), candidates.end());
    is_candidate_.reset(*lo, *hi, 0);
  }
  for (const hw::NodeId id : candidates) is_candidate_[id] = 1;
  filter_dirty_ = true;
}

void JobIndex::refilter(Entry& entry,
                        const std::vector<hw::NodeId>& nodes) const {
  entry.candidate_nodes.clear();
  for (const hw::NodeId id : nodes) {
    if (is_candidate(id)) entry.candidate_nodes.push_back(id);
  }
}

void JobIndex::sync(const sched::Scheduler& scheduler) {
  if (filter_dirty_) {
    // Entries whose finish is still unreplayed refilter too: the
    // scheduler keeps every job it has seen, placement included.
    for (Entry& entry : entries_) {
      refilter(entry, scheduler.find(entry.id)->nodes());
    }
    filter_dirty_ = false;
  }
  const std::vector<sched::JobEvent>& events = scheduler.job_events();
  for (; event_cursor_ < events.size(); ++event_cursor_) {
    const sched::JobEvent& ev = events[event_cursor_];
    if (ev.kind == sched::JobEvent::Kind::kStarted) {
      const workload::Job* job = scheduler.find(ev.id);
      if (job == nullptr) continue;  // scheduler never drops a known job
      Entry entry;
      if (!spare_.empty()) {
        entry = std::move(spare_.back());
        spare_.pop_back();
      }
      entry.id = ev.id;
      refilter(entry, job->nodes());
      entries_.push_back(std::move(entry));
    } else {
      const auto it =
          std::find_if(entries_.begin(), entries_.end(),
                       [&ev](const Entry& e) { return e.id == ev.id; });
      if (it == entries_.end()) continue;
      spare_.push_back(std::move(*it));
      entries_.erase(it);  // order-preserving, mirrors running_.erase
    }
  }
}

}  // namespace pcap::power
