// Priority queue of timed events with stable FIFO ordering at equal times.
//
// Stability matters: the cluster schedules the telemetry tick, the job tick
// and the manager cycle at the same instants, and their relative order must
// be the insertion order, deterministically, or experiments would not be
// reproducible across platforms.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/units.hpp"

namespace pcap::sim {

using EventFn = std::function<void()>;

struct Event {
  Seconds time{0.0};
  std::uint64_t sequence = 0;  // tie-breaker: insertion order
  EventFn fn;
};

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `t`.
  void schedule(Seconds t, EventFn fn);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest event. Requires !empty().
  [[nodiscard]] Seconds next_time() const;

  /// Pops and returns the earliest event. Requires !empty().
  Event pop();

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace pcap::sim
