#include "metrics/graph.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/assert.hpp"

namespace croupier::metrics {

OverlayGraph OverlayGraph::build(
    const std::vector<std::pair<net::NodeId, std::vector<net::NodeId>>>&
        adjacency) {
  OverlayGraph g;
  g.ids_.reserve(adjacency.size());
  for (const auto& [id, _] : adjacency) {
    CROUPIER_ASSERT_MSG(!g.index_.contains(id), "duplicate vertex");
    g.index_.emplace(id, static_cast<std::uint32_t>(g.ids_.size()));
    g.ids_.push_back(id);
  }
  g.out_.resize(g.ids_.size());
  for (const auto& [id, neighbors] : adjacency) {
    auto& row = g.out_[g.index_.at(id)];
    for (net::NodeId n : neighbors) {
      if (n == id) continue;  // self-loop
      const auto it = g.index_.find(n);
      if (it == g.index_.end()) continue;  // edge to node outside snapshot
      row.push_back(it->second);
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    g.edge_count_ += row.size();
  }
  return g;
}

std::vector<std::size_t> OverlayGraph::in_degrees() const {
  std::vector<std::size_t> deg(ids_.size(), 0);
  for (const auto& row : out_) {
    for (std::uint32_t v : row) ++deg[v];
  }
  return deg;
}

std::map<std::size_t, std::size_t> OverlayGraph::in_degree_histogram() const {
  std::map<std::size_t, std::size_t> hist;
  for (std::size_t d : in_degrees()) ++hist[d];
  return hist;
}

double OverlayGraph::avg_path_length(sim::RngStream& rng,
                                     std::size_t max_sources,
                                     double* unreachable_fraction) const {
  if (ids_.empty()) return 0.0;

  std::vector<std::uint32_t> sources(ids_.size());
  std::iota(sources.begin(), sources.end(), 0);
  if (max_sources > 0 && max_sources < sources.size()) {
    rng.shuffle(std::span<std::uint32_t>(sources));
    sources.resize(max_sources);
  }

  std::uint64_t total_hops = 0;
  std::uint64_t reachable_pairs = 0;
  std::uint64_t considered_pairs = 0;
  std::vector<std::int32_t> dist(ids_.size());
  std::deque<std::uint32_t> frontier;

  for (std::uint32_t s : sources) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[s] = 0;
    frontier.clear();
    frontier.push_back(s);
    while (!frontier.empty()) {
      const std::uint32_t u = frontier.front();
      frontier.pop_front();
      for (std::uint32_t v : out_[u]) {
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          frontier.push_back(v);
        }
      }
    }
    for (std::uint32_t v = 0; v < dist.size(); ++v) {
      if (v == s) continue;
      ++considered_pairs;
      if (dist[v] > 0) {
        total_hops += static_cast<std::uint64_t>(dist[v]);
        ++reachable_pairs;
      }
    }
  }

  if (unreachable_fraction != nullptr) {
    *unreachable_fraction =
        considered_pairs == 0
            ? 0.0
            : 1.0 - static_cast<double>(reachable_pairs) /
                        static_cast<double>(considered_pairs);
  }
  if (reachable_pairs == 0) return 0.0;
  return static_cast<double>(total_hops) /
         static_cast<double>(reachable_pairs);
}

double OverlayGraph::avg_clustering_coefficient() const {
  if (ids_.empty()) return 0.0;

  // Undirected projection as sorted neighbour lists.
  std::vector<std::vector<std::uint32_t>> und(ids_.size());
  for (std::uint32_t u = 0; u < out_.size(); ++u) {
    for (std::uint32_t v : out_[u]) {
      und[u].push_back(v);
      und[v].push_back(u);
    }
  }
  for (auto& row : und) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }

  auto linked = [&](std::uint32_t a, std::uint32_t b) {
    return std::binary_search(und[a].begin(), und[a].end(), b);
  };

  double sum = 0.0;
  for (std::uint32_t u = 0; u < und.size(); ++u) {
    const auto& nbrs = und[u];
    if (nbrs.size() < 2) continue;  // local coefficient defined as 0
    std::size_t links = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (linked(nbrs[i], nbrs[j])) ++links;
      }
    }
    const double possible =
        static_cast<double>(nbrs.size()) * (static_cast<double>(nbrs.size()) - 1.0) / 2.0;
    // Vertex order is the builder's insertion order, and
    // World::snapshot_overlay inserts ascending by id, so the summation
    // order is fixed.
    sum += static_cast<double>(links) / possible;
  }
  return sum / static_cast<double>(ids_.size());
}

std::size_t OverlayGraph::largest_component() const {
  if (ids_.empty()) return 0;

  std::vector<std::vector<std::uint32_t>> und(ids_.size());
  for (std::uint32_t u = 0; u < out_.size(); ++u) {
    for (std::uint32_t v : out_[u]) {
      und[u].push_back(v);
      und[v].push_back(u);
    }
  }

  std::vector<bool> seen(ids_.size(), false);
  std::size_t best = 0;
  std::deque<std::uint32_t> frontier;
  for (std::uint32_t s = 0; s < ids_.size(); ++s) {
    if (seen[s]) continue;
    std::size_t size = 0;
    seen[s] = true;
    frontier.clear();
    frontier.push_back(s);
    while (!frontier.empty()) {
      const std::uint32_t u = frontier.front();
      frontier.pop_front();
      ++size;
      for (std::uint32_t v : und[u]) {
        if (!seen[v]) {
          seen[v] = true;
          frontier.push_back(v);
        }
      }
    }
    best = std::max(best, size);
  }
  return best;
}

double OverlayGraph::largest_component_fraction() const {
  if (ids_.empty()) return 0.0;
  return static_cast<double>(largest_component()) /
         static_cast<double>(ids_.size());
}

}  // namespace croupier::metrics
