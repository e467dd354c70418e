// Shared helpers for protocol and integration tests: compact world
// construction and population.
#pragma once

#include <cstddef>

#include "net/nat.hpp"
#include "runtime/registry.hpp"
#include "runtime/world.hpp"

namespace croupier::testing {

inline run::World::Config fast_world_config(std::uint64_t seed = 1) {
  run::World::Config cfg;
  cfg.seed = seed;
  // Constant small latency keeps unit-style protocol tests exact.
  cfg.latency = run::World::LatencyKind::Constant;
  cfg.constant_latency = sim::msec(20);
  cfg.clock_skew = 0.0;
  return cfg;
}

/// Spawns `publics` open-Internet nodes followed by `privates` NATted
/// nodes, all at t=now (they phase-stagger themselves within one round).
inline void populate(run::World& world, std::size_t publics,
                     std::size_t privates) {
  for (std::size_t i = 0; i < publics; ++i) {
    world.spawn(net::NatConfig::open());
  }
  for (std::size_t i = 0; i < privates; ++i) {
    world.spawn(net::NatConfig::natted());
  }
}

}  // namespace croupier::testing
