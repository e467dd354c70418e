// The randomness audit estimators against their closed-form
// expectations: a uniform synthetic sampler passes every statistic at
// the documented thresholds (|chi2 z| < 3, ratios ~1), while hub-biased,
// frozen and class-biased samplers fail exactly the statistic built to
// catch them. Plus the recorder's determinism contract: two runs of the
// same seeded experiment produce bitwise-identical audit series.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "metrics/randomness.hpp"
#include "runtime/spec.hpp"
#include "sim/rng.hpp"

namespace croupier::metrics {
namespace {

TEST(ChiSquareUniform, EqualCountsScoreZero) {
  const std::vector<std::uint64_t> counts{5, 5, 5, 5};
  const auto fit = chi_square_uniform(counts);
  EXPECT_DOUBLE_EQ(fit.statistic, 0.0);
  EXPECT_DOUBLE_EQ(fit.dof, 3.0);
  EXPECT_DOUBLE_EQ(fit.z, -3.0 / std::sqrt(6.0));
}

TEST(ChiSquareUniform, MatchesHandComputedStatistic) {
  // counts {1,2,3}: expected 2 per cell, chi2 = (1/2 + 0 + 1/2) = 1.
  const std::vector<std::uint64_t> counts{1, 2, 3};
  const auto fit = chi_square_uniform(counts);
  EXPECT_DOUBLE_EQ(fit.statistic, 1.0);
  EXPECT_DOUBLE_EQ(fit.dof, 2.0);
  EXPECT_DOUBLE_EQ(fit.z, -0.5);
}

TEST(ChiSquareUniform, DegenerateInputsScoreZero) {
  EXPECT_DOUBLE_EQ(chi_square_uniform({}).statistic, 0.0);
  const std::vector<std::uint64_t> one{7};
  EXPECT_DOUBLE_EQ(chi_square_uniform(one).z, 0.0);
  const std::vector<std::uint64_t> zeros{0, 0, 0};
  EXPECT_DOUBLE_EQ(chi_square_uniform(zeros).z, 0.0);
}

// Synthetic overlay helpers: n nodes with ids 1..n, the first
// `publics` of them public, each holding `view` out-neighbours.
RandomnessAuditor::ClassMap make_classes(std::size_t n, std::size_t publics) {
  RandomnessAuditor::ClassMap classes;
  for (std::size_t i = 1; i <= n; ++i) {
    classes.emplace_back(static_cast<net::NodeId>(i),
                         i <= publics ? net::NatType::Public
                                      : net::NatType::Private);
  }
  return classes;
}

std::vector<net::NodeId> others(std::size_t n, net::NodeId self) {
  std::vector<net::NodeId> pool;
  for (std::size_t i = 1; i <= n; ++i) {
    if (static_cast<net::NodeId>(i) != self) {
      pool.push_back(static_cast<net::NodeId>(i));
    }
  }
  return pool;
}

constexpr std::size_t kNodes = 100;
constexpr std::size_t kPublics = 20;
constexpr std::size_t kView = 10;
constexpr std::size_t kTicks = 30;

TEST(RandomnessAuditor, UniformSamplerPassesEveryStatistic) {
  // A fresh uniform re-sample every tick is the null hypothesis all
  // three estimators are calibrated against.
  RandomnessAuditor auditor;
  sim::RngStream rng(1234);
  RandomnessPoint last;
  for (std::size_t tick = 0; tick < kTicks; ++tick) {
    RandomnessAuditor::Adjacency adj;
    for (std::size_t i = 1; i <= kNodes; ++i) {
      const auto self = static_cast<net::NodeId>(i);
      const auto pool = others(kNodes, self);
      adj.emplace_back(self,
                       rng.sample(std::span<const net::NodeId>(pool), kView));
    }
    last = auditor.observe(adj, make_classes(kNodes, kPublics), 0.2,
                           static_cast<double>(tick));
  }
  EXPECT_EQ(last.nodes, kNodes);
  EXPECT_EQ(last.edges_observed, kNodes * kView * kTicks);
  // The pass thresholds the recorder documentation promises.
  EXPECT_LT(std::abs(last.chi2_z), 3.0);
  EXPECT_NEAR(last.repeat_ratio, 1.0, 0.25);
  EXPECT_NEAR(last.bias_ratio, 1.0, 0.15);
}

TEST(RandomnessAuditor, HubBiasExplodesTheChiSquare) {
  // Every view contains node 1: its in-degree grows n per tick against
  // a uniform mean of `view`, which the chi-square z catches far above
  // the |z| < 3 pass band.
  RandomnessAuditor auditor;
  sim::RngStream rng(99);
  RandomnessPoint last;
  for (std::size_t tick = 0; tick < kTicks; ++tick) {
    RandomnessAuditor::Adjacency adj;
    for (std::size_t i = 1; i <= kNodes; ++i) {
      const auto self = static_cast<net::NodeId>(i);
      const auto pool = others(kNodes, self);
      auto view = rng.sample(std::span<const net::NodeId>(pool), kView - 1);
      if (self != 1) view.push_back(1);
      adj.emplace_back(self, std::move(view));
    }
    last = auditor.observe(adj, make_classes(kNodes, kPublics), 0.2,
                           static_cast<double>(tick));
  }
  EXPECT_GT(last.chi2_z, 10.0);
}

TEST(RandomnessAuditor, FrozenViewsHitTheClosedFormRepeatRatio) {
  // Views that never change: every current entry repeats, so the ratio
  // is exactly observed/expected = 1 / (view/(n-1)) = (n-1)/view.
  RandomnessAuditor auditor;
  sim::RngStream rng(7);
  RandomnessAuditor::Adjacency adj;
  for (std::size_t i = 1; i <= kNodes; ++i) {
    const auto self = static_cast<net::NodeId>(i);
    const auto pool = others(kNodes, self);
    adj.emplace_back(self,
                     rng.sample(std::span<const net::NodeId>(pool), kView));
  }
  (void)auditor.observe(adj, make_classes(kNodes, kPublics), 0.2, 0.0);
  const auto last =
      auditor.observe(adj, make_classes(kNodes, kPublics), 0.2, 1.0);
  EXPECT_DOUBLE_EQ(last.repeat_observed, 1.0);
  EXPECT_NEAR(last.repeat_ratio,
              static_cast<double>(kNodes - 1) / static_cast<double>(kView),
              1e-9);
}

TEST(RandomnessAuditor, PublicOnlyViewsHitTheClosedFormBiasRatio) {
  // Views drawn exclusively from the public fifth of a 20%-public
  // population: fraction 1.0 against omega 0.2 is a bias ratio of 5.
  RandomnessAuditor auditor;
  sim::RngStream rng(21);
  RandomnessAuditor::Adjacency adj;
  std::vector<net::NodeId> publics;
  for (std::size_t i = 1; i <= kPublics; ++i) {
    publics.push_back(static_cast<net::NodeId>(i));
  }
  for (std::size_t i = 1; i <= kNodes; ++i) {
    const auto self = static_cast<net::NodeId>(i);
    auto view = rng.sample(std::span<const net::NodeId>(publics), 5);
    std::erase(view, self);
    adj.emplace_back(self, std::move(view));
  }
  const auto last =
      auditor.observe(adj, make_classes(kNodes, kPublics), 0.2, 0.0);
  EXPECT_DOUBLE_EQ(last.public_fraction, 1.0);
  EXPECT_DOUBLE_EQ(last.bias_ratio, 5.0);
}

TEST(RandomnessAuditor, DepartedNodesArePrunedFromTheCumulativeCounts) {
  RandomnessAuditor auditor;
  const auto classes = make_classes(3, 3);
  // Tick 1: nodes 1 and 2 both point at 3; 3 points at 1.
  RandomnessAuditor::Adjacency tick1{{1, {3}}, {2, {3}}, {3, {1}}};
  (void)auditor.observe(tick1, classes, 1.0, 0.0);
  EXPECT_EQ(auditor.edges_observed(), 3u);
  // Tick 2: node 3 left the overlay — its accumulated in-degree (2)
  // must leave the cumulative tally with it: 3 + 2 new - 2 pruned.
  RandomnessAuditor::Adjacency tick2{{1, {2}}, {2, {1}}};
  (void)auditor.observe(tick2, classes, 1.0, 1.0);
  EXPECT_EQ(auditor.edges_observed(), 3u);

  auditor.reset();
  EXPECT_EQ(auditor.edges_observed(), 0u);
}

TEST(RandomnessAuditor, SelfLoopsAndDuplicatesAreDiscarded) {
  RandomnessAuditor auditor;
  const auto classes = make_classes(3, 1);
  RandomnessAuditor::Adjacency adj{{1, {1, 2, 2, 3}}, {2, {3}}, {3, {}}};
  const auto point = auditor.observe(adj, classes, 1.0 / 3.0, 0.0);
  // Node 1 contributes {2, 3} after dedup and self-drop.
  EXPECT_EQ(point.edges_observed, 3u);
}

}  // namespace
}  // namespace croupier::metrics

namespace croupier::run {
namespace {

TEST(RandomnessRecorder, TwinRunsAreBitwiseIdentical) {
  const ExperimentSpec spec{.protocol = "croupier:alpha=25,gamma=50",
                            .nodes = 150, .ratio = 0.2, .duration_s = 40,
                            .record = ExperimentSpec::RecordKind::Randomness,
                            .record_every_s = 5.0};
  const auto run = [&spec] {
    Experiment experiment(spec, 77);
    experiment.run();
    return experiment.randomness()->series();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_seconds, b[i].t_seconds);
    EXPECT_EQ(a[i].chi2, b[i].chi2);
    EXPECT_EQ(a[i].chi2_z, b[i].chi2_z);
    EXPECT_EQ(a[i].repeat_observed, b[i].repeat_observed);
    EXPECT_EQ(a[i].repeat_expected, b[i].repeat_expected);
    EXPECT_EQ(a[i].repeat_ratio, b[i].repeat_ratio);
    EXPECT_EQ(a[i].public_fraction, b[i].public_fraction);
    EXPECT_EQ(a[i].bias_ratio, b[i].bias_ratio);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].edges_observed, b[i].edges_observed);
  }
}

}  // namespace
}  // namespace croupier::run
