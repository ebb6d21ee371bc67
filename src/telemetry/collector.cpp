#include "telemetry/collector.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pcap::telemetry {

Collector::Collector(CollectorParams params, common::Rng rng)
    : params_(params),
      cost_model_(params.cost),
      fault_injector_(params.faults, rng.fork("faults")),
      noise_root_(rng.fork("agent-noise").next_u64()),
      loss_root_(rng.fork("transport-loss").next_u64()) {
  if (params_.agent.utilization_noise < 0.0 || params_.agent.nic_noise < 0.0) {
    throw std::invalid_argument("Collector: negative agent noise");
  }
  if (params_.history_depth < 2) {
    throw std::invalid_argument(
        "Collector: history must hold at least two samples");
  }
  // The stripe cursors are 32-bit.
  if (params_.history_depth > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("Collector: history depth exceeds 2^32 - 1");
  }
  // Only a corrupt delivery makes the manager read past the newest two
  // samples (it skips implausible entries), so without corruption the
  // window is latest + previous.
  hist_depth_ = params_.faults.corruption_rate > 0.0
                    ? static_cast<std::uint32_t>(params_.history_depth)
                    : 2;
  if (params_.transport.loss_rate < 0.0 ||
      params_.transport.loss_rate >= 1.0) {
    throw std::invalid_argument("Collector: loss rate must be in [0, 1)");
  }
  if (params_.transport.delay_cycles < 0) {
    throw std::invalid_argument("Collector: negative transport delay");
  }
}

void Collector::set_candidate_set(const std::vector<hw::NodeId>& nodes) {
  std::vector<hw::NodeId> next = nodes;
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());

  // Build the new per-slot arrays (and re-striped history arena) up
  // front, so the sweep itself never mutates any shared structure (a
  // parallel sweep only touches distinct pre-existing slots). Retained
  // nodes carry their history and in-flight reports over — their history
  // column moves from the old arena stripe-by-stripe; dropped nodes lose
  // theirs. The history arena is the largest block here, so it is
  // allocated first: it then takes the same free region of the heap on
  // every rebuild instead of whatever the smaller blocks leave over.
  const std::size_t depth = hist_depth_;
  const bool delayed = params_.transport.delay_cycles > 0;
  std::vector<HeldSample> next_store(depth * next.size());
  std::vector<std::vector<InFlight>> next_in_flight(delayed ? next.size()
                                                            : 0);
  std::vector<std::uint32_t> next_head(next.size(), 0);
  std::vector<std::uint32_t> next_size(next.size(), 0);
  for (std::size_t s = 0; s < next.size(); ++s) {
    const std::uint32_t old_slot = slot_of(next[s]);
    if (old_slot == kNoSlot) continue;
    if (delayed) next_in_flight[s] = std::move(in_flight_[old_slot]);
    for (std::size_t d = 0; d < depth; ++d) {
      next_store[d * next.size() + s] =
          hist_store_[d * hist_stride_ + old_slot];
    }
    next_head[s] = hist_head_[old_slot];
    next_size[s] = hist_size_[old_slot];
  }
  candidates_ = std::move(next);
  in_flight_ = std::move(next_in_flight);
  hist_store_ = std::move(next_store);
  hist_head_ = std::move(next_head);
  hist_size_ = std::move(next_size);
  hist_stride_ = candidates_.size();
  if (params_.faults.enabled()) fault_injector_.ensure_nodes(candidates_);

  if (candidates_.empty()) {
    slot_of_.clear();
  } else {
    slot_of_.reset(candidates_.front(), candidates_.back(), kNoSlot);
  }
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    slot_of_[candidates_[i]] = static_cast<std::uint32_t>(i);
  }
}

void Collector::collect_one(std::size_t slot,
                            const std::vector<hw::Node>& nodes, Seconds now,
                            std::uint64_t noise_key, std::uint64_t loss_key,
                            std::uint64_t& delivered, std::uint64_t& lost) {
  const TransportParams& tp = params_.transport;
  const hw::NodeId id = candidates_[slot];

  NodeSample sample = sample_node(nodes, id, now, params_.agent, noise_key,
                                  sample_temperature_);

  // Fault disposition first: a report that never leaves the node sees no
  // transport at all. Corruption mangles the sample in place and lets it
  // travel — the consumer, not the transport, has to notice.
  if (params_.faults.enabled() &&
      fault_injector_.apply(sample).suppressed) {
    // Anything already in flight still arrives (it was sent before the
    // fault), so fall through to the delivery loop below.
  } else if (tp.loss_rate > 0.0 &&
             common::CounterRng(loss_key, id).uniform() < tp.loss_rate) {
    ++lost;
  } else if (tp.delay_cycles == 0) {
    push_history(slot, HeldSample::of(sample, cycle_counter_));
    ++delivered;
  } else {
    in_flight_[slot].push_back(
        InFlight{cycle_counter_ + static_cast<std::uint64_t>(tp.delay_cycles),
                 HeldSample::of(sample, cycle_counter_)});
  }
  if (tp.delay_cycles == 0) return;

  // Deliver whatever has arrived by now (in order).
  std::vector<InFlight>& queue = in_flight_[slot];
  std::size_t due = 0;
  while (due < queue.size() &&
         queue[due].deliver_at_cycle <= cycle_counter_) {
    push_history(slot, queue[due].sample);
    ++due;
  }
  if (due > 0) {
    queue.erase(queue.begin(),
                queue.begin() + static_cast<std::ptrdiff_t>(due));
    delivered += due;
  }
}

void Collector::collect(const std::vector<hw::Node>& nodes, Seconds now,
                        std::size_t monitored_jobs) {
  ++cycle_counter_;
  // candidates_ is sorted, so the whole sweep is validated by its largest
  // id — one comparison, not one bounds check per candidate per cycle.
  if (!candidates_.empty() &&
      static_cast<std::size_t>(candidates_.back()) >= nodes.size()) {
    throw std::out_of_range("Collector::collect: candidate id out of range");
  }
  const std::uint64_t noise_key =
      common::counter_key(noise_root_, cycle_counter_);
  const std::uint64_t loss_key =
      common::counter_key(loss_root_, cycle_counter_);
  common::maybe_parallel_for(
      pool_, candidates_.size(), params_.parallel_threshold,
      params_.parallel_grain, [&](std::size_t begin, std::size_t end) {
        std::uint64_t delivered = 0;
        std::uint64_t lost = 0;
        for (std::size_t i = begin; i < end; ++i) {
          collect_one(i, nodes, now, noise_key, loss_key, delivered, lost);
        }
        samples_delivered_.fetch_add(delivered, std::memory_order_relaxed);
        samples_lost_.fetch_add(lost, std::memory_order_relaxed);
      });
  last_manager_utilization_ =
      cost_model_.cpu_utilization(candidates_.size(), monitored_jobs,
                                  cycle_period_);
}

void Collector::skip_cycle(std::size_t monitored_jobs) {
  ++cycle_counter_;
  last_manager_utilization_ =
      cost_model_.cpu_utilization(0, monitored_jobs, cycle_period_);
}

std::optional<HeldSample> Collector::latest(hw::NodeId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot || hist_size_[slot] == 0) return std::nullopt;
  return history_at_slot(slot).back();
}

std::optional<HeldSample> Collector::previous(hw::NodeId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot || hist_size_[slot] < 2) return std::nullopt;
  const SampleHistoryView h = history_at_slot(slot);
  return h[h.size() - 2];
}

std::optional<SampleHistoryView> Collector::history(hw::NodeId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) return std::nullopt;
  return history_at_slot(slot);
}

}  // namespace pcap::telemetry
