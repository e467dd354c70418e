// Cross-shard write detector (the CROUPIER_CONFLICT_CHECK build option).
//
// The parallel engine's byte-identity contract rests on a convention the
// type system cannot see: a node-affine event handler may only mutate
// state owned by its own node; every cross-node effect must route
// through Simulator::defer so the serial merge replays it in the
// sequential order. The conflict checker verifies that convention on the
// executions the tests run. It is a determinism-specific race detector:
// two same-batch writes to the same node's state from different shards
// are data-race-free under TSan (the batch barrier orders them), yet
// their relative order is a scheduling accident — the exact class of bug
// TSan calls clean and a twin run only catches if the orders happen to
// diverge.
//
// Mechanics: ParallelExecutor::run_shard brackets every batched event
// with begin_shard_event(affinity)/end_shard_event (thread-local, no
// synchronization). Two kinds of hook sit on mutation paths:
//   - record_write(owner): per-node state — a node's NAT box and
//     reassembly buffers in the Network, a protocol's PartialView, the
//     World's per-node runtime. A write whose owner differs from the
//     executing event's affinity aborts; owner 0 means "unowned"
//     (detached test fixtures) and is never checked.
//   - record_shared_write(): state shared by every node — the traffic
//     meter, the Network's send pipeline (message ids, token buckets,
//     the loss/latency RNG, the latency model's last priced pair), the
//     node tables and the bootstrap registry.
//     Any write from inside a batched event aborts: such state may only
//     change in serial events or in defer() effects at the merge.
//
// With the option OFF (the default) every hook is an empty inline and
// release hot paths are untouched.
#pragma once

#include <cstdint>

namespace croupier::sim::conflict {

#if defined(CROUPIER_CONFLICT_CHECK)

/// Marks the calling thread as executing a batched node-affine event
/// owned by `affinity` (a node id; never kSerialAffinity — serial events
/// are barriers and never enter a shard).
void begin_shard_event(std::uint64_t affinity);
void end_shard_event();

/// Declares a mutation of state owned by node `owner`. Aborts when a
/// shard event is active on this thread and `owner` differs from the
/// executing event's affinity. `site` names the state for diagnostics.
/// owner == 0 (unowned) is skipped.
void record_write(std::uint64_t owner, const char* site);

/// Declares a mutation of state shared by every node. Aborts when a shard
/// event is active on this thread. `site` names the state for diagnostics.
void record_shared_write(const char* site);

/// Writes validated inside parallel batches since process start (tests
/// assert this is nonzero to prove the instrumentation was live).
std::uint64_t checked_writes();

constexpr bool enabled() { return true; }

#else

inline void begin_shard_event(std::uint64_t) {}
inline void end_shard_event() {}
inline void record_write(std::uint64_t, const char*) {}
inline void record_shared_write(const char*) {}
inline std::uint64_t checked_writes() { return 0; }
constexpr bool enabled() { return false; }

#endif

}  // namespace croupier::sim::conflict
