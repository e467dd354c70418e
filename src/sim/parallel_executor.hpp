// Round-synchronous parallel batch step for one simulation.
//
// Stepping executes events strictly in (time, seq) order. This executor
// exploits the one structural fact that makes a peer-sampling simulation
// parallelizable: nodes only influence each other through the simulated
// network, and every network hop takes at least the latency model's
// min_latency(). Events for *different* nodes whose timestamps lie
// within one min_latency window are therefore causally independent — a
// conservative-lookahead PDES window, degenerating to "all events
// sharing a timestamp" when the lookahead is one microsecond. The window
// also shrinks below any shorter timer a node arms for itself (its next
// round, a reassembly GC), so nothing a batch schedules lands inside it.
//
// While it lives, the executor is attached to its Simulator, whose
// run_until loop stays the only event loop:
//   1. A serial-affinity head event (scenario joins/kills, recorders, NAT
//      identification) runs through Simulator::step() — serial events
//      are synchronization barriers.
//   2. A node-affine head event hands the loop to run_window(): drain the
//      maximal run of node-affine events with time < head_time +
//      lookahead (stopping at any serial event) in (time, seq) order,
//      partition it into per-worker shards by a stable hash of the node
//      id, and execute the shards concurrently. All per-node state is
//      touched only by its own shard; every cross-node effect (network
//      sends, meter charges, RNG draws, event scheduling) is deferred
//      into the shard's log via Simulator::defer().
//   3. Merge: concatenate the shard logs, stable-sort by the issuing
//      event's (time, seq) — restoring exactly the order stepping would
//      have applied the effects in — and replay them on the engine
//      thread. Event ids assigned during the replay (message deliveries,
//      next-round timers) come out in the same order as under stepping,
//      so future batches tie-break identically.
//
// The result is byte-identical output for every worker count, and with
// no executor at all (World attaches one only when world_jobs > 1) —
// the property the `output` ctests pin across every bench.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace croupier::sim {

/// Stable shard assignment: which of `jobs` workers executes events for
/// `affinity`. A pure function of (affinity, jobs) so partitioning can
/// never depend on scheduling history.
inline std::size_t shard_of(Affinity affinity, std::size_t jobs) {
  std::uint64_t s = affinity;
  return static_cast<std::size_t>(splitmix64(s) % jobs);
}

class ParallelExecutor {
 public:
  struct Options {
    /// Worker count (>= 1). 1 runs batches on the engine thread — same
    /// batching, same merge, no threads.
    std::size_t jobs = 1;
    /// Causal lookahead: events for different nodes closer together than
    /// this may run concurrently. Must not exceed the shortest delay with
    /// which a batched event schedules a node-affine event — for a World,
    /// the minimum one-way network latency, the shortest round period and,
    /// when messages fragment, the reassembly timeout. Clamped up to 1 us
    /// (same-timestamp batching).
    Duration lookahead = 1;
  };

  /// Attaches to `sim` until destruction; at most one executor per
  /// simulator.
  ParallelExecutor(Simulator& sim, Options options);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  [[nodiscard]] std::size_t jobs() const { return jobs_; }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Engine counters (diagnostics; effective parallelism reporting).
  struct Stats {
    std::uint64_t batches = 0;        ///< parallel batches executed
    std::uint64_t batched_events = 0; ///< events executed inside batches
    std::uint64_t max_batch = 0;      ///< largest single batch
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  friend class Simulator;

  /// The batch step of Simulator::run_until, called when the head event
  /// is node-affine: drains its lookahead window (capped at `deadline`),
  /// then shards, executes and merges it.
  void run_window(SimTime deadline);
  void execute_batch();
  void run_shard(std::size_t shard);
  void worker_loop(std::size_t shard);

  Simulator& sim_;
  std::size_t jobs_;
  Duration lookahead_;
  Stats stats_;

  // One slot per shard, reused across batches.
  std::vector<std::vector<EventQueue::Event>> shard_events_;
  std::vector<Simulator::ShardLog> logs_;
  std::vector<Simulator::DeferredOp> merged_;
  std::vector<EventQueue::Event> batch_;

  // Batch handoff for the persistent workers (shards 1..jobs-1; the
  // engine thread runs shard 0). The mutex also publishes shard_events_
  // and logs_ between the engine thread and the workers.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // incremented per dispatched batch
  std::size_t pending_ = 0;       // workers still running this batch
  bool stopping_ = false;
};

}  // namespace croupier::sim
