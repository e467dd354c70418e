#include "metrics/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/assert.hpp"

namespace croupier::metrics {

void ComponentTracker::reset() {
  index_.clear();
  parent_.clear();
  size_.clear();
  largest_ = 0;
}

std::uint32_t ComponentTracker::intern(net::NodeId a) {
  const auto [it, inserted] =
      index_.emplace(a, static_cast<std::uint32_t>(parent_.size()));
  if (inserted) {
    parent_.push_back(it->second);
    size_.push_back(1);
    largest_ = std::max<std::size_t>(largest_, 1);
  }
  return it->second;
}

std::uint32_t ComponentTracker::find(std::uint32_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

void ComponentTracker::add_node(net::NodeId a) { intern(a); }

void ComponentTracker::add_edge(net::NodeId a, net::NodeId b) {
  std::uint32_t ra = find(intern(a));
  std::uint32_t rb = find(intern(b));
  if (ra == rb) return;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  largest_ = std::max<std::size_t>(largest_, size_[ra]);
}

void StreamingGraphEstimator::reset_accumulators() {
  components_.reset();
  indeg_hits_.clear();
  indeg_probes_ = 0;
  edge_samples_ = 0;
  edge_samples_sq_ = 0;
}

net::NodeId StreamingGraphEstimator::draw_vertex(
    std::span<const net::NodeId> candidates, const VertexFn& is_vertex,
    sim::RngStream& rng) {
  // Bounded rejection: in natid-off worlds every candidate is a vertex
  // and the first draw lands; a natid-heavy join wave just costs a few
  // retries. 32 misses means vertices are so sparse the tick should be
  // skipped rather than spun on.
  for (int attempt = 0; attempt < 32; ++attempt) {
    const net::NodeId id = candidates[rng.index(candidates.size())];
    if (is_vertex(id)) return id;
  }
  return net::kNilNode;
}

StreamingGraphStats StreamingGraphEstimator::tick(
    std::span<const net::NodeId> candidates, std::size_t population,
    const NeighborFn& neighbors, const VertexFn& is_vertex,
    sim::RngStream& rng) {
  StreamingGraphStats out;
  out.population = population;
  if (candidates.empty() || population == 0) return out;

  std::vector<net::NodeId> nbrs;
  auto fetch_filtered = [&](net::NodeId u,
                            std::vector<net::NodeId>& into) -> bool {
    if (!neighbors(u, into)) return false;
    // Match OverlayGraph::build: drop self-loops, edges to non-vertices,
    // and duplicate edges.
    std::erase_if(into,
                  [&](net::NodeId v) { return v == u || !is_vertex(v); });
    std::sort(into.begin(), into.end());
    into.erase(std::unique(into.begin(), into.end()), into.end());
    return true;
  };

  // --- Degree, in-degree, and component sampling (accumulating). ---
  std::uint64_t tick_degree_sum = 0;
  std::size_t tick_degree_samples = 0;
  for (std::size_t k = 0; k < cfg_.degree_probes; ++k) {
    const net::NodeId u = draw_vertex(candidates, is_vertex, rng);
    if (u == net::kNilNode) break;
    if (!fetch_filtered(u, nbrs)) continue;
    tick_degree_sum += nbrs.size();
    ++tick_degree_samples;
    ++indeg_probes_;
    components_.add_node(u);
    for (const net::NodeId v : nbrs) {
      components_.add_edge(u, v);
      auto& hits = indeg_hits_[v];
      // Keep sum and sum-of-squares incremental: (h+1)^2 - h^2 = 2h+1.
      edge_samples_sq_ += 2 * hits + 1;
      ++hits;
      ++edge_samples_;
    }
  }
  if (tick_degree_samples > 0) {
    out.mean_out_degree = static_cast<double>(tick_degree_sum) /
                          static_cast<double>(tick_degree_samples);
  }
  out.edge_samples = edge_samples_;
  out.component_nodes = components_.node_count();
  out.largest_component_fraction = components_.largest_fraction();

  // In-degree concentration: hits_t ~ Binomial(probes, indeg_t / N), so
  // the population variance of the hit counts overshoots the in-degree
  // variance by roughly the Poisson term (the mean). Subtracting it
  // de-noises the CV estimate; the max(0, ...) clamp absorbs the small
  // negative excursions of a balanced overlay.
  if (edge_samples_ > 0 && population > 0) {
    const double n = static_cast<double>(population);
    const double mean = static_cast<double>(edge_samples_) / n;
    const double var =
        static_cast<double>(edge_samples_sq_) / n - mean * mean;
    const double corrected = std::max(0.0, var - mean);
    out.in_degree_cv = mean > 0.0 ? std::sqrt(corrected) / mean : 0.0;
  }

  // --- Clustering (per tick). ---
  double cc_sum = 0.0;
  std::size_t cc_samples = 0;
  std::vector<net::NodeId> hood;
  std::vector<std::vector<net::NodeId>> hood_out;
  for (std::size_t k = 0; k < cfg_.cluster_probes; ++k) {
    const net::NodeId u = draw_vertex(candidates, is_vertex, rng);
    if (u == net::kNilNode) break;
    if (!fetch_filtered(u, hood)) continue;
    ++cc_samples;
    if (hood.size() < 2) continue;  // local coefficient defined as 0
    hood_out.assign(hood.size(), {});
    for (std::size_t i = 0; i < hood.size(); ++i) {
      if (neighbors(hood[i], hood_out[i])) {
        std::sort(hood_out[i].begin(), hood_out[i].end());
      }
    }
    const auto linked = [&](std::size_t i, std::size_t j) {
      return std::binary_search(hood_out[i].begin(), hood_out[i].end(),
                                hood[j]) ||
             std::binary_search(hood_out[j].begin(), hood_out[j].end(),
                                hood[i]);
    };
    std::size_t links = 0;
    for (std::size_t i = 0; i < hood.size(); ++i) {
      for (std::size_t j = i + 1; j < hood.size(); ++j) {
        if (linked(i, j)) ++links;
      }
    }
    const double possible = static_cast<double>(hood.size()) *
                            (static_cast<double>(hood.size()) - 1.0) / 2.0;
    // Probe order is drawn from the seeded RngStream, so the summation
    // order is fixed by the seed.
    cc_sum += static_cast<double>(links) / possible;
  }
  if (cc_samples > 0) {
    out.clustering_coefficient = cc_sum / static_cast<double>(cc_samples);
  }

  // --- Path length (per tick). ---
  std::uint64_t total_hops = 0;
  std::uint64_t found_pairs = 0;
  std::uint64_t unreachable_pairs = 0;
  HashIndex<net::NodeId, std::uint32_t> dist;
  std::deque<net::NodeId> frontier;
  std::vector<net::NodeId> targets;
  for (std::size_t s = 0; s < cfg_.path_sources; ++s) {
    const net::NodeId src = draw_vertex(candidates, is_vertex, rng);
    if (src == net::kNilNode) break;

    targets.clear();
    for (std::size_t t = 0; t < cfg_.path_targets; ++t) {
      const net::NodeId cand = draw_vertex(candidates, is_vertex, rng);
      if (cand == net::kNilNode) break;
      if (cand == src ||
          std::find(targets.begin(), targets.end(), cand) != targets.end()) {
        continue;  // fewer targets this source; no bias, just fewer pairs
      }
      targets.push_back(cand);
    }
    if (targets.empty()) continue;

    // BFS on the implicit graph. Distances are exact for every pair it
    // resolves; the budget only censors pairs (they are dropped from
    // both estimates, never misreported as unreachable).
    dist.clear();
    frontier.clear();
    dist.emplace(src, 0);
    frontier.push_back(src);
    std::size_t remaining = targets.size();
    std::size_t expanded = 0;
    bool truncated = false;
    while (!frontier.empty() && remaining > 0) {
      if (cfg_.bfs_budget > 0 && expanded >= cfg_.bfs_budget) {
        truncated = true;
        break;
      }
      const net::NodeId u = frontier.front();
      frontier.pop_front();
      ++expanded;
      if (!neighbors(u, nbrs)) continue;  // died mid-walk: skip
      const std::uint32_t du = dist.at(u);
      for (const net::NodeId v : nbrs) {
        if (v == u || !is_vertex(v)) continue;
        if (!dist.emplace(v, du + 1).second) continue;
        if (std::find(targets.begin(), targets.end(), v) != targets.end()) {
          total_hops += du + 1;
          ++found_pairs;
          --remaining;
        }
        frontier.push_back(v);
      }
    }
    if (truncated) {
      ++out.bfs_truncated;
    } else {
      // Frontier exhausted: the unresolved targets are truly
      // unreachable from this source.
      unreachable_pairs += remaining;
    }
  }
  out.path_pairs = static_cast<std::size_t>(found_pairs);
  if (found_pairs > 0) {
    out.avg_path_length =
        static_cast<double>(total_hops) / static_cast<double>(found_pairs);
  }
  if (found_pairs + unreachable_pairs > 0) {
    out.unreachable_fraction =
        static_cast<double>(unreachable_pairs) /
        static_cast<double>(found_pairs + unreachable_pairs);
  }
  return out;
}

}  // namespace croupier::metrics
