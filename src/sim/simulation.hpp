// Discrete-event simulation engine.
//
// The engine owns the clock and the event queue. Components register
// one-shot events or periodic processes; run_until() advances the clock to
// each event in order. All model time in the library flows from here.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "obs/registry.hpp"
#include "sim/event_queue.hpp"

namespace pcap::sim {

class Simulation {
 public:
  Simulation() = default;

  [[nodiscard]] Seconds now() const { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Schedules `fn` at an absolute time (>= now()).
  void schedule_at(Seconds t, EventFn fn);

  /// Registers `fn(now)` to fire every `period`, first at now()+offset,
  /// for the rest of the simulation.
  void every(Seconds period, Seconds offset, std::function<void(Seconds)> fn);

  /// Runs events until the queue is empty or the clock would pass `end`.
  /// The clock finishes exactly at `end`.
  void run_until(Seconds end);

  /// Registers the engine's series (events processed, pending events) in
  /// `reg` and publishes them at the end of every run_until().
  /// The registry must outlive the simulation.
  void attach_metrics(obs::Registry& reg);

 private:
  void publish_metrics() {
    if (metrics_ == nullptr) return;
    metrics_->set_total(events_counter_, processed_);
    metrics_->set(pending_gauge_, static_cast<double>(queue_.size()));
  }

  void schedule_periodic(Seconds first, Seconds period,
                         std::shared_ptr<std::function<void(Seconds)>> fn);

  EventQueue queue_;
  Seconds now_{0.0};
  std::uint64_t processed_ = 0;
  obs::Registry* metrics_ = nullptr;
  obs::CounterHandle events_counter_;
  obs::GaugeHandle pending_gauge_;
};

}  // namespace pcap::sim
