#include "metrics/randomness.hpp"

#include <algorithm>
#include <cmath>

#include "common/hash_index.hpp"

namespace croupier::metrics {

ChiSquareFit chi_square_uniform(std::span<const std::uint64_t> counts) {
  ChiSquareFit fit;
  if (counts.size() < 2) return fit;
  std::uint64_t total = 0;
  std::uint64_t sum_sq = 0;
  for (const std::uint64_t c : counts) {
    total += c;
    sum_sq += c * c;
  }
  if (total == 0) return fit;
  // With e = total/n per cell: chi2 = sum((o-e)^2)/e = n*sum(o^2)/total
  // - total. Both sums are exact integers; the doubles below are single
  // closed-form operations, so the result is bit-stable.
  const auto n = static_cast<double>(counts.size());
  fit.statistic = n * static_cast<double>(sum_sq) /
                      static_cast<double>(total) -
                  static_cast<double>(total);
  fit.dof = n - 1.0;
  fit.z = (fit.statistic - fit.dof) / std::sqrt(2.0 * fit.dof);
  return fit;
}

RandomnessPoint RandomnessAuditor::observe(const Adjacency& adjacency,
                                           const ClassMap& classes,
                                           double true_ratio,
                                           double t_seconds) {
  RandomnessPoint point;
  point.t_seconds = t_seconds;
  point.nodes = adjacency.size();

  // Class lookup for edge targets.
  HashIndex<net::NodeId, net::NatType> class_of;
  class_of.reserve(classes.size());
  for (const auto& [id, type] : classes) class_of.emplace(id, type);

  // One pass over the snapshot: accumulate in-degree, lag-1 overlap and
  // class tallies, all as exact integers.
  std::uint64_t cur_entries = 0;
  std::uint64_t overlap_entries = 0;
  std::uint64_t expected_num = 0;  // sum over nodes of |cur_i| * |prev_i|
  std::uint64_t lag_entries = 0;   // sum of |cur_i| over nodes with a prev
  std::uint64_t pub_entries = 0;
  std::map<net::NodeId, std::vector<net::NodeId>> next_prev;
  for (const auto& [id, neighbors] : adjacency) {
    std::vector<net::NodeId> sorted = neighbors;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

    for (const net::NodeId target : sorted) {
      if (target == id) continue;
      ++indegree_[target];
      ++edges_observed_;
      ++cur_entries;
      const auto it = class_of.find(target);
      if (it != class_of.end() && it->second == net::NatType::Public) {
        ++pub_entries;
      }
    }

    if (const auto prev_it = prev_.find(id); prev_it != prev_.end()) {
      const auto& prev = prev_it->second;
      std::uint64_t cur_count = 0;
      for (const net::NodeId target : sorted) {
        if (target == id) continue;
        ++cur_count;
        if (std::binary_search(prev.begin(), prev.end(), target)) {
          ++overlap_entries;
        }
      }
      lag_entries += cur_count;
      expected_num += cur_count * static_cast<std::uint64_t>(prev.size());
    }
    next_prev.emplace(id, std::move(sorted));
  }
  prev_ = std::move(next_prev);

  // Drop in-degree history of nodes that left the snapshot (and their
  // observations from the cumulative total) — chi-square is over the
  // current membership only.
  for (auto it = indegree_.begin(); it != indegree_.end();) {
    if (prev_.contains(it->first)) {
      ++it;
    } else {
      edges_observed_ -= it->second;
      it = indegree_.erase(it);
    }
  }

  std::vector<std::uint64_t> counts;
  counts.reserve(indegree_.size());
  for (const auto& [id, count] : indegree_) counts.push_back(count);
  const ChiSquareFit fit = chi_square_uniform(counts);
  point.chi2 = fit.statistic;
  point.chi2_z = fit.z;
  point.edges_observed = edges_observed_;

  // Lag-1: expected overlap of a fresh uniform re-sample of |cur_i|
  // entries (out of n-1 candidates) with the previous |prev_i| entries
  // is |cur_i|*|prev_i|/(n-1); summed and normalized by total entries.
  if (lag_entries > 0 && adjacency.size() > 1) {
    point.repeat_observed = static_cast<double>(overlap_entries) /
                            static_cast<double>(lag_entries);
    point.repeat_expected =
        static_cast<double>(expected_num) /
        (static_cast<double>(adjacency.size() - 1) *
         static_cast<double>(lag_entries));
    if (point.repeat_expected > 0.0) {
      point.repeat_ratio = point.repeat_observed / point.repeat_expected;
    }
  }

  if (cur_entries > 0) {
    point.public_fraction = static_cast<double>(pub_entries) /
                            static_cast<double>(cur_entries);
    point.public_expected = true_ratio;
    if (true_ratio > 0.0) {
      point.bias_ratio = point.public_fraction / true_ratio;
    }
  }
  return point;
}

void RandomnessAuditor::reset() {
  indegree_.clear();
  prev_.clear();
  edges_observed_ = 0;
}

}  // namespace croupier::metrics
