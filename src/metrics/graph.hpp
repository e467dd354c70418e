// Overlay graph snapshots and the randomness metrics of paper fig. 6/7b.
//
// A snapshot is a directed graph whose vertices are (a subset of) the live
// nodes and whose edges are view entries. The metrics follow the
// definitions the paper uses:
//  - in-degree distribution (fig 6a): edges pointing at each node;
//  - average path length (fig 6b): BFS hop count over directed edges,
//    averaged over reachable ordered pairs (optionally from a sampled set
//    of source vertices for large graphs);
//  - clustering coefficient (fig 6c): average local clustering on the
//    undirected projection;
//  - largest connected cluster (fig 7b): biggest weakly-connected
//    component, as a fraction of vertices.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/hash_index.hpp"
#include "net/address.hpp"
#include "sim/rng.hpp"

namespace croupier::metrics {

class OverlayGraph {
 public:
  /// Builds from (node, out-neighbour list) pairs. Self-loops and edges to
  /// unknown vertices are dropped; duplicate edges collapse.
  static OverlayGraph build(
      const std::vector<std::pair<net::NodeId, std::vector<net::NodeId>>>&
          adjacency);

  [[nodiscard]] std::size_t node_count() const { return out_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  /// In-degree of every vertex (index-aligned with ids()).
  [[nodiscard]] std::vector<std::size_t> in_degrees() const;

  /// Histogram: in-degree -> number of nodes (paper fig. 6a).
  [[nodiscard]] std::map<std::size_t, std::size_t> in_degree_histogram()
      const;

  /// Average shortest-path length over directed reachable pairs. When
  /// `max_sources` > 0 and smaller than the vertex count, BFS runs from
  /// that many uniformly sampled sources (keeps fig. 6b tractable at
  /// 1000+ nodes). Unreachable pairs are excluded; their fraction is
  /// reported through `unreachable_fraction` if non-null.
  [[nodiscard]] double avg_path_length(sim::RngStream& rng,
                                       std::size_t max_sources = 0,
                                       double* unreachable_fraction =
                                           nullptr) const;

  /// Mean local clustering coefficient on the undirected projection.
  [[nodiscard]] double avg_clustering_coefficient() const;

  /// Size of the largest weakly-connected component.
  [[nodiscard]] std::size_t largest_component() const;

  /// Largest component as a fraction of all vertices (0 for empty graph).
  [[nodiscard]] double largest_component_fraction() const;

  [[nodiscard]] const std::vector<net::NodeId>& ids() const { return ids_; }

 private:
  std::vector<net::NodeId> ids_;                      // dense index -> id
  HashIndex<net::NodeId, std::uint32_t> index_;
  std::vector<std::vector<std::uint32_t>> out_;       // directed adjacency
  std::size_t edge_count_ = 0;
};

}  // namespace croupier::metrics
