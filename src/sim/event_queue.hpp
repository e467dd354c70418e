// Priority queue of timed events for the discrete-event simulator.
//
// Events with equal timestamps fire in scheduling (FIFO) order, which makes
// simulations deterministic: the (time, sequence-number) pair is a total
// order. The queue is a binary heap of self-contained entries — each one
// carries its own callback — and an event, once scheduled, always fires.
// Code whose events may go stale checks a guard when they fire instead
// (see "Retiring events" in docs/ARCHITECTURE.md).
//
// Every event carries an *affinity* tag: the id of the node whose state
// the callback touches, or kSerialAffinity when the callback reads or
// writes state shared across nodes (scenario processes, recorders, NAT
// identification). Without a sim/parallel_executor attached the simulator
// ignores affinities; with one, they decide which events may execute
// concurrently and which force a serialization point.
#pragma once

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

  /// Schedules `fn` at absolute time `at`. The two-argument form tags the
  /// event kSerialAffinity.
  void schedule(SimTime at, Callback fn) {
    schedule(at, kSerialAffinity, std::move(fn));
  }
  void schedule(SimTime at, Affinity affinity, Callback fn);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest event. Must not be called when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Affinity of the earliest event. Must not be called when empty.
  [[nodiscard]] Affinity next_affinity() const;

  /// Removes and returns the earliest event. Must not be called when
  /// empty.
  Event pop();

 private:
  std::vector<Event> heap_;  // std::push_heap/pop_heap, earliest at front
  EventId next_id_ = 1;
};

}  // namespace croupier::sim
