// Algebraic properties of the ratio estimator's merge and of the overlay
// metrics against random-graph theory — the "it cannot be subtly wrong"
// layer on top of the example-based tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/estimator.hpp"
#include "metrics/graph.hpp"
#include "sim/rng.hpp"

namespace croupier {
namespace {

using core::EstimateEntry;
using core::EstimatorConfig;
using core::RatioEstimator;

std::vector<EstimateEntry> random_entries(sim::RngStream& rng,
                                          std::size_t count) {
  std::vector<EstimateEntry> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(EstimateEntry{
        static_cast<net::NodeId>(rng.uniform(20) + 2),
        static_cast<std::uint8_t>(rng.uniform(50)),
        static_cast<std::uint8_t>(rng.uniform(200) + 1),
        static_cast<std::uint8_t>(rng.uniform(40))});
  }
  return out;
}

// Merging is idempotent: applying the same batch twice changes nothing.
class EstimatorMergeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EstimatorMergeSweep, MergeIsIdempotent) {
  sim::RngStream rng(GetParam());
  RatioEstimator e(1, net::NatType::Private, EstimatorConfig{});
  const auto batch = random_entries(rng, 15);
  e.merge(batch);
  const auto cache_once = e.cached();
  const double est_once = e.estimate();
  e.merge(batch);
  EXPECT_EQ(e.cached(), cache_once);
  EXPECT_DOUBLE_EQ(e.estimate(), est_once);
}

TEST_P(EstimatorMergeSweep, MergeOrderDoesNotAffectEstimate) {
  // The cache keeps the newest entry per origin, so any permutation of
  // the same multiset of entries must yield the same estimate. (Ties on
  // age are broken first-wins, so we make ages unique per origin.)
  sim::RngStream rng(GetParam() * 31 + 7);
  std::vector<EstimateEntry> batch;
  for (net::NodeId origin = 2; origin < 12; ++origin) {
    for (std::uint8_t age : {3, 9, 17}) {
      batch.push_back(EstimateEntry{
          origin, static_cast<std::uint8_t>(rng.uniform(40) + 1),
          static_cast<std::uint8_t>(rng.uniform(160) + 1),
          static_cast<std::uint8_t>(age + origin % 3)});
    }
  }

  RatioEstimator forward(1, net::NatType::Private, EstimatorConfig{});
  forward.merge(batch);

  std::vector<EstimateEntry> shuffled = batch;
  rng.shuffle(std::span<EstimateEntry>(shuffled));
  RatioEstimator permuted(1, net::NatType::Private, EstimatorConfig{});
  permuted.merge(shuffled);

  EXPECT_DOUBLE_EQ(forward.estimate(), permuted.estimate());
}

TEST_P(EstimatorMergeSweep, EstimateAlwaysInUnitInterval) {
  sim::RngStream rng(GetParam() * 97 + 3);
  RatioEstimator e(1, net::NatType::Public, EstimatorConfig{});
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < rng.uniform(5); ++i) {
      e.count_request(rng.chance(0.5) ? net::NatType::Public
                                      : net::NatType::Private);
    }
    e.begin_round();
    e.merge(random_entries(rng, rng.uniform(8)));
    const double est = e.estimate();
    ASSERT_GE(est, 0.0);
    ASSERT_LE(est, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorMergeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Directed ER-style random graph: measured metrics must match theory.
TEST(GraphTheory, RandomGraphPathLengthMatchesLogNOverLogD) {
  sim::RngStream rng(11);
  const std::size_t n = 2000;
  const std::size_t d = 12;
  std::vector<std::pair<net::NodeId, std::vector<net::NodeId>>> adj;
  for (net::NodeId i = 0; i < n; ++i) {
    std::vector<net::NodeId> nbrs;
    while (nbrs.size() < d) {
      const auto t = static_cast<net::NodeId>(rng.uniform(n));
      if (t != i) nbrs.push_back(t);
    }
    adj.emplace_back(i, std::move(nbrs));
  }
  const auto g = metrics::OverlayGraph::build(adj);
  sim::RngStream sample_rng(1);
  const double apl = g.avg_path_length(sample_rng, 64);
  const double theory = std::log(static_cast<double>(n)) /
                        std::log(static_cast<double>(d));
  EXPECT_NEAR(apl, theory, 0.5);
}

TEST(GraphTheory, RandomGraphClusteringMatchesDegreeOverN) {
  sim::RngStream rng(13);
  const std::size_t n = 1500;
  const std::size_t d = 10;
  std::vector<std::pair<net::NodeId, std::vector<net::NodeId>>> adj;
  for (net::NodeId i = 0; i < n; ++i) {
    std::vector<net::NodeId> nbrs;
    while (nbrs.size() < d) {
      const auto t = static_cast<net::NodeId>(rng.uniform(n));
      if (t != i) nbrs.push_back(t);
    }
    adj.emplace_back(i, std::move(nbrs));
  }
  const auto g = metrics::OverlayGraph::build(adj);
  // Undirected projection has mean degree ~2d; expected clustering for a
  // random graph is (mean degree)/n.
  const double theory = 2.0 * static_cast<double>(d) / static_cast<double>(n);
  EXPECT_NEAR(g.avg_clustering_coefficient(), theory, theory);
  EXPECT_LT(g.avg_clustering_coefficient(), 0.05);
}

TEST(GraphTheory, RandomGraphIsConnectedAtThisDegree) {
  sim::RngStream rng(17);
  const std::size_t n = 1000;
  std::vector<std::pair<net::NodeId, std::vector<net::NodeId>>> adj;
  for (net::NodeId i = 0; i < n; ++i) {
    std::vector<net::NodeId> nbrs;
    for (int k = 0; k < 8; ++k) {
      nbrs.push_back(static_cast<net::NodeId>(rng.uniform(n)));
    }
    adj.emplace_back(i, std::move(nbrs));
  }
  const auto g = metrics::OverlayGraph::build(adj);
  EXPECT_EQ(g.largest_component(), n);  // far above the ln(n) threshold
}

}  // namespace
}  // namespace croupier
