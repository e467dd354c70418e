// Implementation of the cross-shard write detector. All thread-local
// state lives here, in one translation unit, for the same reason the
// Simulator keeps its shard-log TLS in simulator.cpp: inline TLS access
// from headers is what the sanitizer builds choke on.
#if defined(CROUPIER_CONFLICT_CHECK)

#include "sim/conflict.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace croupier::sim::conflict {

namespace {

thread_local std::uint64_t tls_owner = 0;
thread_local bool tls_active = false;
std::atomic<std::uint64_t> checked{0};

}  // namespace

void begin_shard_event(std::uint64_t affinity) {
  tls_owner = affinity;
  tls_active = true;
}

void end_shard_event() { tls_active = false; }

void record_write(std::uint64_t owner, const char* site) {
  if (!tls_active || owner == 0) return;
  checked.fetch_add(1, std::memory_order_relaxed);
  if (owner == tls_owner) return;
  std::fprintf(stderr,
               "croupier: conflict-check: cross-shard write to state of "
               "node %llu (%s) from a batched event owned by node %llu — "
               "route the effect through Simulator::defer\n",
               static_cast<unsigned long long>(owner), site,
               static_cast<unsigned long long>(tls_owner));
  std::abort();
}

void record_shared_write(const char* site) {
  if (!tls_active) return;
  std::fprintf(stderr,
               "croupier: conflict-check: write to shared state (%s) from "
               "a batched event owned by node %llu — route the effect "
               "through Simulator::defer\n",
               site, static_cast<unsigned long long>(tls_owner));
  std::abort();
}

std::uint64_t checked_writes() {
  return checked.load(std::memory_order_relaxed);
}

}  // namespace croupier::sim::conflict

#endif  // CROUPIER_CONFLICT_CHECK
