// Priority queue of timed events for the discrete-event simulator.
//
// Events with equal timestamps fire in scheduling (FIFO) order, which makes
// simulations deterministic: the (time, sequence-number) pair is a total
// order. An event, once scheduled, always fires. Code whose events may go
// stale checks a guard when they fire instead (see "Retiring events" in
// docs/ARCHITECTURE.md).
//
// The queue is monotone: no event may be scheduled before the last popped
// time (asserted). Simulator's no-past rule and the parallel merge's causal
// floor already guarantee that, and it lets the queue be a radix heap
// (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990) instead of a binary heap.
// Bucket b >= 1 holds the events whose time first differs from the last
// popped time in bit b - 1, counting from bit 0; bucket 0 holds the events
// at exactly that time and pops them FIFO. A schedule appends to one
// bucket. When bucket 0 runs dry, pop takes the lowest non-empty bucket,
// makes its minimum the new last popped time and redistributes the
// bucket's events into the (empty) buckets below it; each event moves
// down at most 64 times before it pops. FIFO within equal times holds
// because ids grow with scheduling and a bucket receives redistributed
// events only while it is empty, so equal times sit in every bucket in id
// order. next_time and next_affinity only look: they read the lowest
// bucket's minimum, tracked on every append, and never move the last
// popped time, so a caller may peek at a far head and then schedule
// before it.
//
// Buckets hold 16-byte {time, slot} keys. Each event's id, affinity and
// callback sit in `slab_` at its slot, and a popped event's slot is reused
// by the next schedule, so a redistribution moves keys, never callbacks.
//
// Every event carries an *affinity* tag: the id of the node whose state
// the callback touches, or kSerialAffinity when the callback reads or
// writes state shared across nodes (scenario processes, recorders, NAT
// identification). Without a sim/parallel_executor attached the simulator
// ignores affinities; with one, they decide which events may execute
// concurrently and which force a serialization point.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace croupier::sim {

/// An event's sequence number: assigned in scheduling order, it breaks
/// timestamp ties.
using EventId = std::uint64_t;

/// Which node's state an event touches. kSerialAffinity marks events that
/// touch cross-node state and therefore must run alone, in order.
using Affinity = std::uint64_t;
constexpr Affinity kSerialAffinity = 0;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  struct Event {
    SimTime time;
    EventId id;
    Affinity affinity;
    Callback fn;
  };

  /// Schedules `fn` at absolute time `at`, which must not be before the
  /// last popped event's time. The two-argument form tags the event
  /// kSerialAffinity.
  void schedule(SimTime at, Callback fn) {
    schedule(at, kSerialAffinity, std::move(fn));
  }
  void schedule(SimTime at, Affinity affinity, Callback fn);

  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t size() const {
    return slab_.size() - free_slots_.size();
  }

  /// Timestamp of the earliest event. Must not be called when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Affinity of the earliest event. Must not be called when empty.
  [[nodiscard]] Affinity next_affinity() const;

  /// Removes and returns the earliest event. Must not be called when
  /// empty.
  Event pop();

 private:
  struct Key {
    SimTime time;
    std::size_t slot;  // index into slab_
  };
  struct Payload {
    EventId id;
    Affinity affinity;
    Callback fn;
  };
  static constexpr std::size_t kBuckets = 65;

  /// The lowest non-empty bucket b >= 1. Must not be called when
  /// `occupied_` is 0.
  [[nodiscard]] std::size_t lowest_bucket() const;
  /// The earliest event's key. Must not be called when empty.
  [[nodiscard]] const Key& head() const;
  void push(Key key);
  /// Moves the lowest non-empty bucket's events down around its minimum,
  /// which becomes last_popped_. Called when bucket 0 is drained.
  void refill();

  std::array<std::vector<Key>, kBuckets> buckets_;
  /// The earliest key of each occupied bucket b >= 1 (the first in bucket
  /// order among equal times).
  std::array<Key, kBuckets> bucket_min_{};
  /// Bit b - 1 is set while bucket b >= 1 holds events.
  std::uint64_t occupied_ = 0;
  /// Bucket 0 pops from here; it is cleared as its last key pops.
  std::size_t front_ = 0;
  SimTime last_popped_ = 0;
  std::vector<Payload> slab_;
  std::vector<std::size_t> free_slots_;
  EventId next_id_ = 1;
};

}  // namespace croupier::sim
