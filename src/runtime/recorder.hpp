// Periodic metric recorders driven by the simulation clock.
//
// EstimationRecorder samples the estimation error series of figures 1-5;
// GraphStatsRecorder samples the randomness series of figure 6(b)/(c).
// Both follow the paper's measurement hygiene: nodes that have executed
// fewer than two gossip rounds are excluded ("giving them enough time to
// initialize their estimates").
//
// SampledGraphStatsRecorder is the million-node variant of
// GraphStatsRecorder: instead of materializing the full overlay every
// tick it runs the O(sample) streaming estimators (metrics/streaming)
// against the implicit graph. Selected with record=graph-sampled.
//
// Every recorder ticks through a sim::Ticker: start(at) samples at `at`
// and every interval after that; stop() is immediate and idempotent, and
// a restart never leaves the stopped chain sampling beside the new one.
#pragma once

#include <vector>

#include "metrics/estimation.hpp"
#include "metrics/randomness.hpp"
#include "metrics/streaming.hpp"
#include "runtime/world.hpp"
#include "sim/ticker.hpp"

namespace croupier::run {

struct EstimationRecorderOptions {
  sim::Duration interval = sim::sec(1);
  std::uint64_t min_rounds = 2;
};

class EstimationRecorder {
 public:
  using Options = EstimationRecorderOptions;

  EstimationRecorder(World& world, Options opt = {});

  /// Starts sampling at `at` and every `interval` thereafter (while the
  /// simulation keeps running).
  void start(sim::SimTime at) { ticker_.start(at); }
  void stop() { ticker_.stop(); }

  [[nodiscard]] const metrics::ErrorSeries& series() const { return series_; }

  /// The last recorded point (empty-series safe: returns zeros).
  [[nodiscard]] metrics::ErrorPoint latest() const {
    return series_.empty() ? metrics::ErrorPoint{} : series_.back();
  }

 private:
  void tick();

  World& world_;
  Options opt_;
  metrics::ErrorSeries series_;
  sim::Ticker ticker_;
};

/// One timestamped snapshot of overlay randomness metrics.
struct GraphStatsPoint {
  double t_seconds = 0.0;
  double avg_path_length = 0.0;
  double clustering_coefficient = 0.0;
  double unreachable_fraction = 0.0;
  std::size_t nodes = 0;
  std::size_t edges = 0;
};

struct GraphStatsRecorderOptions {
  sim::Duration interval = sim::sec(10);
  /// BFS sources for path length (0 = exact all-pairs).
  std::size_t path_length_sources = 128;
};

class GraphStatsRecorder {
 public:
  using Options = GraphStatsRecorderOptions;

  GraphStatsRecorder(World& world, Options opt = {});

  void start(sim::SimTime at) { ticker_.start(at); }
  void stop() { ticker_.stop(); }

  [[nodiscard]] const std::vector<GraphStatsPoint>& series() const {
    return series_;
  }

 private:
  void tick();

  World& world_;
  Options opt_;
  sim::RngStream rng_;
  std::vector<GraphStatsPoint> series_;
  sim::Ticker ticker_;
};

struct SampledGraphStatsRecorderOptions {
  sim::Duration interval = sim::sec(10);
  metrics::StreamingGraphConfig estimator;
};

/// Periodic O(sample) overlay-randomness sampling for worlds too large
/// to snapshot. Cross-tick accumulators (in-degree hits, component
/// tracking) reset automatically when nodes die — the observations
/// describe a graph that no longer exists.
class SampledGraphStatsRecorder {
 public:
  using Options = SampledGraphStatsRecorderOptions;
  using Point = metrics::StreamingGraphStats;

  SampledGraphStatsRecorder(World& world, Options opt = {});

  void start(sim::SimTime at);
  void stop() { ticker_.stop(); }

  [[nodiscard]] const std::vector<Point>& series() const { return series_; }

  /// The last recorded point (empty-series safe: returns zeros).
  [[nodiscard]] Point latest() const {
    return series_.empty() ? Point{} : series_.back();
  }

 private:
  void tick();

  World& world_;
  sim::RngStream rng_;
  metrics::StreamingGraphEstimator estimator_;
  std::uint64_t kill_epoch_ = 0;
  std::vector<Point> series_;
  sim::Ticker ticker_;
};

struct RandomnessRecorderOptions {
  sim::Duration interval = sim::sec(10);
};

/// Periodic statistical randomness audit (record=randomness): feeds the
/// live overlay snapshot to a metrics::RandomnessAuditor and records the
/// chi-square / lag-1 / class-bias point per tick. Draws no randomness
/// itself — the estimators are closed-form over the snapshot — so the
/// series is a pure function of the overlay trajectory. Departed nodes
/// are pruned by the auditor, not by epoch reset: under the eclipse and
/// churn scenarios the *surviving* population's accumulated skew is
/// exactly the signal.
class RandomnessAuditRecorder {
 public:
  using Options = RandomnessRecorderOptions;

  RandomnessAuditRecorder(World& world, Options opt = {});

  void start(sim::SimTime at) { ticker_.start(at); }
  void stop() { ticker_.stop(); }

  [[nodiscard]] const std::vector<metrics::RandomnessPoint>& series() const {
    return series_;
  }

  /// The last recorded point (empty-series safe: returns zeros).
  [[nodiscard]] metrics::RandomnessPoint latest() const {
    return series_.empty() ? metrics::RandomnessPoint{} : series_.back();
  }

 private:
  void tick();

  World& world_;
  metrics::RandomnessAuditor auditor_;
  std::vector<metrics::RandomnessPoint> series_;
  sim::Ticker ticker_;
};

}  // namespace croupier::run
