// The traced run: a replica of run::Experiment that times each layer
// from outside.
//
// Experiment accepts no protocol factory, so the replica rebuilds what
// its constructor does from the spec's public fields — the World config,
// the ScenarioProcess pipeline in Experiment's arming order, and the
// recorder's serial tick at the same cadence — but builds the World with
// every protocol instance wrapped in a TimedSampler, times each recorder
// tick, and advances in 1 s World::run_until slices. The event schedule
// is unchanged, so the replica reproduces the production run's digest;
// the suite checks that it does on every traced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "runtime/spec.hpp"

namespace croupier::suite {

struct TracedResult {
  std::string digest;
  std::map<std::string, double> checks;
  /// Per-layer metrics by name (see bench/suite/README.md).
  std::map<std::string, double> layers;
};

/// Runs `spec` once under tracing. Throws std::invalid_argument for spec
/// features the replica does not rebuild (it covers joins, churn and the
/// estimation, sampled-graph and randomness recorders).
TracedResult run_traced(const run::ExperimentSpec& spec, std::uint64_t seed,
                        std::size_t world_jobs);

}  // namespace croupier::suite
