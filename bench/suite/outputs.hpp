// What a workload run produced, reduced to a digest and sanity values.
//
// Both the production path (run::Experiment) and the traced replica fill
// a RunOutputs from their own recorder series and the world's counters,
// and both go through the same digest_of(), so equal digests mean the
// two runs produced bit-identical results.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics/estimation.hpp"
#include "metrics/randomness.hpp"
#include "metrics/streaming.hpp"
#include "net/network.hpp"
#include "runtime/scenario.hpp"

namespace croupier::suite {

struct RunOutputs {
  double duration_s = 0.0;
  // At most one series is set: the one the spec's record= kind produces.
  const metrics::ErrorSeries* estimation = nullptr;
  const std::vector<metrics::StreamingGraphStats>* graph_sampled = nullptr;
  const std::vector<metrics::RandomnessPoint>* randomness = nullptr;
  std::uint64_t events = 0;
  net::Network::DropStats drops;
  run::ScenarioProcess::Stats scenario;
};

/// 64-bit FNV-1a over the bit patterns of every recorded value, the
/// event count, the drop counters and the scenario totals, as 16 hex
/// digits.
std::string digest_of(const RunOutputs& out);

/// Values the workload sanity bounds are checked against (names are
/// stable; only those the run's recorder supports are present):
///   steady_avg_err          mean avg-error over the last 50 simulated s
///   final_largest_component last sampled largest-component fraction
///   audit_ticks             randomness audit points recorded
///   replaced                nodes replaced by churn
std::map<std::string, double> checks_of(const RunOutputs& out);

}  // namespace croupier::suite
