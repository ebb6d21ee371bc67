#include "sim/simulation.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>

namespace pcap::sim {

void Simulation::schedule_at(Seconds t, EventFn fn) {
  if (t < now_) {
    throw std::invalid_argument("Simulation::schedule_at: time in the past");
  }
  queue_.schedule(t, std::move(fn));
}

void Simulation::every(Seconds period, Seconds offset,
                       std::function<void(Seconds)> fn) {
  if (period <= Seconds{0.0}) {
    throw std::invalid_argument("Simulation::every: non-positive period");
  }
  schedule_periodic(
      now_ + offset, period,
      std::make_shared<std::function<void(Seconds)>>(std::move(fn)));
}

void Simulation::schedule_periodic(
    Seconds first, Seconds period,
    std::shared_ptr<std::function<void(Seconds)>> fn) {
  queue_.schedule(first, [this, first, period, fn] {
    (*fn)(first);
    schedule_periodic(first + period, period, fn);
  });
}

void Simulation::run_until(Seconds end) {
  if (end < now_) {
    throw std::invalid_argument("Simulation::run_until: end in the past");
  }
  while (!queue_.empty() && queue_.next_time() <= end) {
    Event ev = queue_.pop();
    assert(ev.time >= now_);
    now_ = ev.time;
    ev.fn();
    ++processed_;
  }
  now_ = end;
  publish_metrics();
}

void Simulation::attach_metrics(obs::Registry& reg) {
  metrics_ = &reg;
  events_counter_ = reg.counter("pcap_sim_events_total",
                                "Discrete events processed by the engine");
  pending_gauge_ = reg.gauge("pcap_sim_pending_events",
                             "Events waiting in the queue");
  publish_metrics();
}

}  // namespace pcap::sim
