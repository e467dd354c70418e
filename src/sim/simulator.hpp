// The discrete-event simulation kernel.
//
// This is the substrate standing in for the Kompics simulator the paper
// used: an event loop over virtual time. Components schedule callbacks at
// absolute or relative times; the simulator fires them in deterministic
// (time, scheduling-order) order and advances the clock discontinuously
// to each event's timestamp.
//
// run_until is the one event loop; run() drives it too. The head event
// runs alone through step() unless it is node-affine and a
// ParallelExecutor (sim/parallel_executor) is attached: then the executor
// runs the causally independent node-affine events of one lookahead
// window on worker threads and replays their shared-state effects
// serially in (time, seq) order, so its output is byte-identical to
// stepping one event at a time.
//
// The bridge between stepping and batching is defer(): any effect that
// touches state shared across nodes (the network RNG, traffic meters,
// the event queue itself) must go through defer(fn). Outside a parallel
// batch defer runs the effect immediately — the serial path is unchanged
// — while inside a batch it is logged per worker and applied at the
// deterministic merge. Scheduling calls made during a batch are deferred
// the same way.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace croupier::sim {

class ParallelExecutor;

class Simulator {
 public:
  /// Current virtual time. Inside a parallel batch this is the executing
  /// event's own timestamp, so callbacks always observe the same clock
  /// they would when stepping.
  [[nodiscard]] SimTime now() const;

  /// Number of events executed so far (for diagnostics and tests),
  /// including guarded events that fired as no-ops.
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Schedules a callback `delay` after the current time. The affinity
  /// overload tags the event with the node whose state the callback
  /// touches; the plain overload tags it kSerialAffinity. A scheduled
  /// event always fires: there is no cancel.
  void schedule_after(Duration delay, EventQueue::Callback fn) {
    schedule_after(delay, kSerialAffinity, std::move(fn));
  }
  void schedule_after(Duration delay, Affinity affinity,
                      EventQueue::Callback fn);

  /// Schedules a callback at an absolute virtual time (>= now).
  void schedule_at(SimTime at, EventQueue::Callback fn) {
    schedule_at(at, kSerialAffinity, std::move(fn));
  }
  void schedule_at(SimTime at, Affinity affinity, EventQueue::Callback fn);

  /// Runs `effect` now when executing serially, or logs it for the
  /// deterministic (time, seq, issue-order) replay when called from a
  /// worker inside a parallel batch. Effects that mutate cross-node state
  /// from node-affine callbacks (network sends, meter charges) MUST be
  /// routed through here — it is what keeps the parallel engine
  /// byte-identical to the sequential one. The serial path calls the
  /// effect in place: no std::function is built.
  template <typename F>
  void defer(F&& effect) {
    if (ShardLog* log = active_log()) {
      log->ops.push_back(DeferredOp{log->current_time, log->current_id,
                                    std::forward<F>(effect)});
      return;
    }
    std::forward<F>(effect)();
  }

  /// Executes the single next event, if any, whatever its affinity.
  /// Returns false when idle.
  bool step();

  /// Runs until the queue is empty or the clock would pass `deadline`,
  /// through the attached ParallelExecutor's batches when there is one.
  /// Events scheduled exactly at `deadline` are executed. On return the
  /// clock reads max(deadline, time of last event).
  void run_until(SimTime deadline);

  /// Runs for a span of virtual time from now.
  void run_for(Duration span) { run_until(now_ + span); }

  /// Runs until no events remain; the clock stays at the last event's
  /// time.
  void run();

 private:
  friend class ParallelExecutor;

  /// One deferred effect, tagged with the (time, id) of the event that
  /// issued it so the merge can replay effects in sequential order.
  struct DeferredOp {
    SimTime time;
    EventId id;
    EventQueue::Callback fn;
  };

  /// Per-worker execution log for one parallel batch. While a worker
  /// drains its shard, tls_log_ points at its log; current_time/
  /// current_id track the event being executed.
  struct ShardLog {
    Simulator* owner = nullptr;
    SimTime current_time = 0;
    EventId current_id = 0;
    std::uint64_t executed = 0;
    std::vector<DeferredOp> ops;
  };

  /// The calling thread's active shard log for *this* simulator, or
  /// nullptr when executing serially.
  [[nodiscard]] ShardLog* active_log() const;

  /// Binds/unbinds the calling thread's shard log. All tls_log_ access
  /// stays inside simulator.cpp: gcc routes cross-TU thread_local
  /// references through a TLS wrapper that UBSan's null check
  /// mis-flags as a store through null.
  static void bind_shard_log(ShardLog* log);

  void schedule_impl(SimTime at, Affinity affinity, EventQueue::Callback fn,
                     bool check_past);

  /// The event loop behind run_until and run: every event up to
  /// `deadline`, without the final clock advance.
  void run_events(SimTime deadline);

  /// Advances the clock to a popped event and executes it serially.
  void fire(EventQueue::Event& event);

  static thread_local ShardLog* tls_log_;

  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  /// Set by a ParallelExecutor for its lifetime; null runs every event
  /// through step().
  ParallelExecutor* executor_ = nullptr;
  /// During a parallel merge: no deferred schedule may target a time
  /// before this (causality guard for the lookahead window). 0 = off.
  SimTime causal_floor_ = 0;
};

}  // namespace croupier::sim
