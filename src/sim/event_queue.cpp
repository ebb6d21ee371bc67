#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace pcap::sim {

void EventQueue::schedule(Seconds t, EventFn fn) {
  heap_.push(Event{t, next_sequence_++, std::move(fn)});
}

Seconds EventQueue::next_time() const {
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time on empty");
  return heap_.top().time;
}

Event EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop on empty");
  // priority_queue::top() is const; moving out then popping is the standard
  // idiom for move-only payloads.
  Event ev = std::move(const_cast<Event&>(heap_.top()));
  heap_.pop();
  return ev;
}

}  // namespace pcap::sim
