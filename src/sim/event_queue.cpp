#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace croupier::sim {

namespace {

// Heap order: "a fires after b", so the earliest (time, id) is the root.
bool fires_after(const EventQueue::Event& a, const EventQueue::Event& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.id > b.id;
}

}  // namespace

void EventQueue::schedule(SimTime at, Affinity affinity, Callback fn) {
  CROUPIER_ASSERT(fn != nullptr);
  heap_.push_back(Event{at, next_id_++, affinity, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), fires_after);
}

SimTime EventQueue::next_time() const {
  CROUPIER_ASSERT_MSG(!heap_.empty(), "next_time() on empty queue");
  return heap_.front().time;
}

Affinity EventQueue::next_affinity() const {
  CROUPIER_ASSERT_MSG(!heap_.empty(), "next_affinity() on empty queue");
  return heap_.front().affinity;
}

EventQueue::Event EventQueue::pop() {
  CROUPIER_ASSERT_MSG(!heap_.empty(), "pop() on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), fires_after);
  Event event = std::move(heap_.back());
  heap_.pop_back();
  return event;
}

}  // namespace croupier::sim
