#include "runtime/recorder.hpp"

namespace croupier::run {

EstimationRecorder::EstimationRecorder(World& world, Options opt)
    : world_(world),
      opt_(opt),
      ticker_(world.simulator(), opt.interval, [this] { tick(); }) {}

void EstimationRecorder::tick() {
  const auto estimates = world_.ratio_estimates(opt_.min_rounds);
  metrics::ErrorPoint point;
  point.t_seconds = sim::to_seconds(world_.simulator().now());
  point.sample = metrics::estimation_errors(estimates, world_.true_ratio());
  series_.push_back(point);
}

GraphStatsRecorder::GraphStatsRecorder(World& world, Options opt)
    : world_(world),
      opt_(opt),
      rng_(world.scenario_rng().fork(0x6EA9)),
      ticker_(world.simulator(), opt.interval, [this] { tick(); }) {}

void GraphStatsRecorder::tick() {
  const auto graph = world_.snapshot_overlay();
  GraphStatsPoint point;
  point.t_seconds = sim::to_seconds(world_.simulator().now());
  point.nodes = graph.node_count();
  point.edges = graph.edge_count();
  point.avg_path_length = graph.avg_path_length(
      rng_, opt_.path_length_sources, &point.unreachable_fraction);
  point.clustering_coefficient = graph.avg_clustering_coefficient();
  series_.push_back(point);
}

SampledGraphStatsRecorder::SampledGraphStatsRecorder(World& world,
                                                     Options opt)
    : world_(world),
      rng_(world.scenario_rng().fork(0x6EAB)),
      estimator_(opt.estimator),
      ticker_(world.simulator(), opt.interval, [this] { tick(); }) {}

void SampledGraphStatsRecorder::start(sim::SimTime at) {
  kill_epoch_ = world_.kill_count();
  ticker_.start(at);
}

void SampledGraphStatsRecorder::tick() {
  if (world_.kill_count() != kill_epoch_) {
    kill_epoch_ = world_.kill_count();
    estimator_.reset_accumulators();
  }

  const auto neighbors = [this](net::NodeId id,
                                std::vector<net::NodeId>& out) {
    const auto* s = world_.sampler(id);
    if (s == nullptr) return false;
    out = s->out_neighbors();
    return true;
  };
  const auto is_vertex = [this](net::NodeId id) {
    return world_.sampler(id) != nullptr;
  };

  Point point = estimator_.tick(
      std::span<const net::NodeId>(world_.alive_ids()),
      world_.gossiping_count(), neighbors, is_vertex, rng_);
  point.t_seconds = sim::to_seconds(world_.simulator().now());
  series_.push_back(point);
}

RandomnessAuditRecorder::RandomnessAuditRecorder(World& world, Options opt)
    : world_(world),
      ticker_(world.simulator(), opt.interval, [this] { tick(); }) {}

void RandomnessAuditRecorder::tick() {
  metrics::RandomnessAuditor::Adjacency adjacency;
  adjacency.reserve(world_.gossiping_count());
  for (const net::NodeId id : world_.sorted_ids()) {
    const auto* s = world_.sampler(id);
    if (s == nullptr) continue;
    adjacency.emplace_back(id, s->out_neighbors());
  }
  auto point = auditor_.observe(adjacency, world_.class_map(),
                                world_.true_ratio(),
                                sim::to_seconds(world_.simulator().now()));
  series_.push_back(point);
}

}  // namespace croupier::run
