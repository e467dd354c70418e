// O(sample) streaming estimators of the overlay-randomness metrics.
//
// The exact metrics (metrics/graph.hpp) materialize the whole overlay —
// O(n + E) memory for the snapshot plus O(n·E) BFS work — which is fine
// at 10^3..10^4 nodes and impossible per-tick at 10^6. The estimators
// here never materialize the graph: they probe a bounded sample of
// nodes through a neighbor callback against the *implicit* graph (each
// protocol's live view) and pay O(sample) per tick:
//
//  - out-degree / edge sampling: probe K uniform sources per tick;
//  - in-degree concentration: every probed edge is a hit on its target;
//    hits accumulate across ticks and the population coefficient of
//    variation is recovered with the sampling (Poisson) noise variance
//    subtracted;
//  - path length: full or budget-capped BFS from a few sources toward a
//    handful of sampled targets (distances are exact for measured
//    pairs; the estimate error is pair-sampling error);
//  - clustering: per sampled node, link tests among its out-neighbors
//    in either edge direction (the out-neighborhood estimator of the
//    exact metric's undirected projection);
//  - components: union-find fed by the probed edges, accumulated across
//    ticks and reset at membership epochs (kills), tracking the largest
//    observed component incrementally.
//
// Accuracy against the exact metrics is pinned by
// tests/streaming_metrics_test.cpp on 10^2..10^3-node graphs; tolerance
// notes live in docs/SPEC_REFERENCE.md.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/hash_index.hpp"
#include "net/address.hpp"
#include "sim/rng.hpp"

namespace croupier::metrics {

/// Incremental connected-component tracker over observed (undirected)
/// edges. Union-find with path halving + union by size; the largest
/// component size is maintained as edges arrive.
class ComponentTracker {
 public:
  void reset();

  /// Registers a node (isolated until an edge touches it).
  void add_node(net::NodeId a);

  /// Registers an undirected edge observation.
  void add_edge(net::NodeId a, net::NodeId b);

  [[nodiscard]] std::size_t node_count() const { return parent_.size(); }
  [[nodiscard]] std::size_t largest() const { return largest_; }
  [[nodiscard]] double largest_fraction() const {
    return parent_.empty() ? 0.0
                           : static_cast<double>(largest_) /
                                 static_cast<double>(parent_.size());
  }

 private:
  std::uint32_t intern(net::NodeId a);
  std::uint32_t find(std::uint32_t x);

  HashIndex<net::NodeId, std::uint32_t> index_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t largest_ = 0;
};

struct StreamingGraphConfig {
  /// Sources probed per tick for degree/in-degree/component sampling.
  std::size_t degree_probes = 64;
  /// BFS sources per tick for the path-length estimate.
  std::size_t path_sources = 4;
  /// Sampled targets per BFS source.
  std::size_t path_targets = 16;
  /// Max nodes a single BFS may expand; 0 = unbounded. When the budget
  /// stops a BFS early, its unresolved targets are censored (dropped
  /// from both the path-length and unreachable estimates) rather than
  /// miscounted as unreachable.
  std::size_t bfs_budget = 2'000'000;
  /// Nodes probed per tick for the clustering estimate.
  std::size_t cluster_probes = 32;
};

/// One tick's estimates. Degree, path, and clustering figures are
/// per-tick snapshots; in-degree concentration and component tracking
/// accumulate across ticks (until reset at a membership epoch).
struct StreamingGraphStats {
  double t_seconds = 0.0;  // stamped by the recorder
  double avg_path_length = 0.0;
  double unreachable_fraction = 0.0;
  double clustering_coefficient = 0.0;
  double mean_out_degree = 0.0;
  /// Coefficient of variation of the in-degree distribution (0 for a
  /// perfectly balanced overlay; ~1/sqrt(d) for a random d-regular-out
  /// overlay), estimated from accumulated edge probes with the sampling
  /// noise subtracted.
  double in_degree_cv = 0.0;
  /// Largest observed component as a fraction of the nodes the
  /// component tracker has seen so far (warms up over ticks).
  double largest_component_fraction = 0.0;
  std::size_t population = 0;       // gossiping vertices at tick time
  std::size_t component_nodes = 0;  // distinct nodes seen by union-find
  std::uint64_t edge_samples = 0;   // cumulative probed edges
  std::size_t path_pairs = 0;       // pairs with a measured distance
  std::size_t bfs_truncated = 0;    // budget-stopped BFS runs this tick
};

class StreamingGraphEstimator {
 public:
  /// Fills `out` (cleared first) with the node's current out-neighbors
  /// and returns true, or returns false if the node is not a graph
  /// vertex right now (dead, or still identifying its NAT).
  using NeighborFn =
      std::function<bool(net::NodeId, std::vector<net::NodeId>&)>;
  /// O(1) "is this id a graph vertex right now" predicate.
  using VertexFn = std::function<bool(net::NodeId)>;

  explicit StreamingGraphEstimator(StreamingGraphConfig cfg = {})
      : cfg_(cfg) {}

  [[nodiscard]] const StreamingGraphConfig& config() const { return cfg_; }

  /// Drops all cross-tick accumulators (in-degree hits, components).
  /// Call at membership epochs — the accumulated observations describe
  /// a graph that no longer exists.
  void reset_accumulators();

  /// Runs one sampling pass. `candidates` is the id universe to draw
  /// from (may contain non-vertices; they are rejected via `is_vertex`),
  /// `population` the number of actual vertices among them.
  StreamingGraphStats tick(std::span<const net::NodeId> candidates,
                           std::size_t population,
                           const NeighborFn& neighbors,
                           const VertexFn& is_vertex, sim::RngStream& rng);

 private:
  /// Draws a uniform vertex from `candidates` (bounded rejection against
  /// non-vertices); kNilNode if none found.
  net::NodeId draw_vertex(std::span<const net::NodeId> candidates,
                          const VertexFn& is_vertex, sim::RngStream& rng);

  StreamingGraphConfig cfg_;

  // Cross-tick accumulators.
  ComponentTracker components_;
  HashIndex<net::NodeId, std::uint64_t> indeg_hits_;
  std::uint64_t indeg_probes_ = 0;     // sources probed (cumulative)
  std::uint64_t edge_samples_ = 0;     // sum of hits
  std::uint64_t edge_samples_sq_ = 0;  // sum of hits^2, kept incrementally
};

}  // namespace croupier::metrics
