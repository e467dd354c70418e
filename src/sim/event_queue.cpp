#include "sim/event_queue.hpp"

#include <bit>
#include <utility>

#include "common/assert.hpp"

namespace croupier::sim {

std::size_t EventQueue::lowest_bucket() const {
  return static_cast<std::size_t>(std::countr_zero(occupied_)) + 1;
}

void EventQueue::push(Key key) {
  const auto b =
      static_cast<std::size_t>(std::bit_width(key.time ^ last_popped_));
  buckets_[b].push_back(key);
  if (b == 0) return;
  const std::uint64_t bit = std::uint64_t{1} << (b - 1);
  // Strict '<' keeps the earlier of two equal times, which is the lower id.
  if ((occupied_ & bit) == 0 || key.time < bucket_min_[b].time) {
    bucket_min_[b] = key;
  }
  occupied_ |= bit;
}

void EventQueue::schedule(SimTime at, Affinity affinity, Callback fn) {
  CROUPIER_ASSERT(fn != nullptr);
  CROUPIER_ASSERT_MSG(at >= last_popped_,
                      "schedule() before the last popped time");
  std::size_t slot = slab_.size();
  if (free_slots_.empty()) {
    slab_.push_back(Payload{next_id_++, affinity, std::move(fn)});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = Payload{next_id_++, affinity, std::move(fn)};
  }
  push(Key{at, slot});
}

const EventQueue::Key& EventQueue::head() const {
  if (!buckets_[0].empty()) return buckets_[0][front_];
  return bucket_min_[lowest_bucket()];
}

SimTime EventQueue::next_time() const {
  CROUPIER_ASSERT_MSG(!empty(), "next_time() on empty queue");
  return head().time;
}

Affinity EventQueue::next_affinity() const {
  CROUPIER_ASSERT_MSG(!empty(), "next_affinity() on empty queue");
  return slab_[head().slot].affinity;
}

void EventQueue::refill() {
  const std::size_t b = lowest_bucket();
  occupied_ &= ~(std::uint64_t{1} << (b - 1));
  last_popped_ = bucket_min_[b].time;
  // Every key in bucket b shares last_popped_'s bits from b up, so each
  // lands in a bucket below b; those are all empty, and the keys keep
  // their relative order.
  std::vector<Key>& from = buckets_[b];
  for (const Key& key : from) push(key);
  from.clear();
}

EventQueue::Event EventQueue::pop() {
  CROUPIER_ASSERT_MSG(!empty(), "pop() on empty queue");
  std::vector<Key>& now = buckets_[0];
  if (now.empty()) refill();
  const Key key = now[front_++];
  if (front_ == now.size()) {
    now.clear();
    front_ = 0;
  }
  Payload& payload = slab_[key.slot];
  free_slots_.push_back(key.slot);
  return Event{key.time, payload.id, payload.affinity, std::move(payload.fn)};
}

}  // namespace croupier::sim
