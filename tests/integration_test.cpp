// Whole-system integration tests: the paper's qualitative claims at small
// scale — estimator convergence under joins/churn/dynamic ratios, overlay
// randomness, overhead ordering, and failure resilience.
#include <gtest/gtest.h>

#include <cmath>

#include "metrics/overhead.hpp"
#include "runtime/recorder.hpp"
#include "runtime/scenario.hpp"
#include "test_util.hpp"

namespace croupier {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

core::CroupierConfig croupier_cfg(std::size_t alpha = 25,
                                  std::size_t gamma = 50) {
  core::CroupierConfig cfg;
  cfg.base.view_size = 10;
  cfg.base.shuffle_size = 5;
  cfg.estimator.local_history = alpha;
  cfg.estimator.neighbour_history = gamma;
  return cfg;
}

run::World::Config king_config(std::uint64_t seed) {
  run::World::Config cfg;
  cfg.seed = seed;
  cfg.latency = run::World::LatencyKind::King;
  return cfg;
}

TEST(Integration, EstimationConvergesUnderPoissonJoins) {
  run::World world(king_config(1),
                   run::make_factory<core::Croupier>(croupier_cfg()));
  // Scaled-down fig. 1 workload: 40 public + 160 private, ω = 0.2.
  const auto publics = run::JoinProcess::poisson(
      world, 40, net::NatConfig::open(), sim::msec(50));
  const auto privates = run::JoinProcess::poisson(
      world, 160, net::NatConfig::natted(), sim::msec(13));
  publics->start(0);
  privates->start(0);
  run::EstimationRecorder rec(world, {sim::sec(1), 2});
  rec.start(sim::sec(1));
  world.simulator().run_until(sim::sec(120));

  EXPECT_EQ(world.alive_count(), 200u);
  EXPECT_NEAR(world.true_ratio(), 0.2, 1e-9);
  const auto last = rec.latest();
  EXPECT_LT(last.sample.avg_error, 0.03);
  EXPECT_LT(last.sample.max_error, 0.12);
}

TEST(Integration, EstimationTracksDynamicRatio) {
  run::World world(king_config(3),
                   run::make_factory<core::Croupier>(croupier_cfg(10, 25)));
  populate(world, 40, 160);
  world.simulator().run_until(sim::sec(40));
  // Ratio steps up: 40 more publics join quickly.
  const auto step = run::JoinProcess::fixed(
      world, 40, net::NatConfig::open(), sim::msec(100));
  step->start(world.simulator().now());
  world.simulator().run_until(sim::sec(150));
  const double truth = world.true_ratio();
  EXPECT_NEAR(truth, 80.0 / 240.0, 1e-9);
  const auto estimates = world.ratio_estimates();
  double sum = 0;
  for (double e : estimates) sum += e;
  EXPECT_NEAR(sum / static_cast<double>(estimates.size()), truth, 0.05);
}

TEST(Integration, EstimationSurvivesChurn) {
  run::World world(king_config(5),
                   run::make_factory<core::Croupier>(croupier_cfg()));
  populate(world, 40, 160);
  run::ChurnProcess churn(world, 0.01, net::NatConfig::open(),
                          net::NatConfig::natted());
  churn.start(sim::sec(30));
  run::EstimationRecorder rec(world, {sim::sec(1), 2});
  rec.start(sim::sec(1));
  world.simulator().run_until(sim::sec(150));

  EXPECT_GT(churn.replaced(), 100u);
  EXPECT_LT(rec.latest().sample.avg_error, 0.04);
}

TEST(Integration, CroupierOverlayLooksRandom) {
  run::World world(king_config(7),
                   run::make_factory<core::Croupier>(croupier_cfg()));
  populate(world, 40, 160);
  world.simulator().run_until(sim::sec(60));

  const auto g = world.snapshot_overlay();
  EXPECT_EQ(g.largest_component(), 200u);  // connected

  sim::RngStream rng(1);
  const double apl = g.avg_path_length(rng, 0);
  // Random graph with out-degree ~20 on 200 nodes: diameter ~2.
  EXPECT_GT(apl, 1.2);
  EXPECT_LT(apl, 3.5);
  EXPECT_LT(g.avg_clustering_coefficient(), 0.35);
}

TEST(Integration, OverheadOrderingCroupierGozarNylon) {
  // Scaled-down fig. 7a: same population, one world per protocol,
  // measured over a steady-state window.
  auto measure = [](run::ProtocolFactory factory) {
    run::World world(king_config(11), std::move(factory));
    populate(world, 20, 80);
    world.simulator().run_until(sim::sec(30));
    world.network().meter().reset();
    world.simulator().run_until(sim::sec(60));
    return metrics::summarize_load(world.network().meter(),
                                   world.class_map(), sim::sec(30));
  };

  const auto croupier_load =
      measure(run::make_factory<core::Croupier>(croupier_cfg()));
  baselines::GozarConfig gz;
  gz.base.view_size = 10;
  gz.base.shuffle_size = 5;
  const auto gozar_load = measure(run::make_factory<baselines::Gozar>(gz));
  baselines::NylonConfig ny;
  ny.base.view_size = 10;
  ny.base.shuffle_size = 5;
  const auto nylon_load = measure(run::make_factory<baselines::Nylon>(ny));

  // The paper's qualitative result: Croupier cheapest for private nodes,
  // Nylon most expensive everywhere.
  EXPECT_LT(croupier_load.private_bytes_per_sec,
            gozar_load.private_bytes_per_sec);
  EXPECT_LT(gozar_load.private_bytes_per_sec,
            nylon_load.private_bytes_per_sec);
  EXPECT_LT(croupier_load.public_bytes_per_sec,
            nylon_load.public_bytes_per_sec);
}

TEST(Integration, CatastrophicFailureCroupierKeepsBigCluster) {
  run::World world(king_config(13),
                   run::make_factory<core::Croupier>(croupier_cfg()));
  populate(world, 40, 160);  // 80% private
  world.simulator().run_until(sim::sec(60));
  run::CatastropheProcess crash(world, 0.7);
  crash.start(sim::sec(60));
  world.simulator().run_until(sim::sec(61));

  ASSERT_EQ(world.alive_count(), 60u);
  const auto g = world.snapshot_overlay(/*usable_only=*/true);
  // Survivors overwhelmingly stay in one cluster via the croupiers.
  EXPECT_GT(g.largest_component_fraction(), 0.8);
}

TEST(Integration, CatastrophicFailureHurtsGozarMore) {
  auto cluster_after_failure = [](run::ProtocolFactory factory) {
    run::World world(king_config(17), std::move(factory));
    populate(world, 40, 160);
    world.simulator().run_until(sim::sec(60));
    run::CatastropheProcess crash(world, 0.8);
    crash.start(sim::sec(60));
    world.simulator().run_until(sim::sec(61));
    return world.snapshot_overlay(true).largest_component_fraction();
  };

  const double croupier_cluster =
      cluster_after_failure(run::make_factory<core::Croupier>(croupier_cfg()));
  baselines::GozarConfig gz;
  gz.base.view_size = 10;
  gz.base.shuffle_size = 5;
  const double gozar_cluster =
      cluster_after_failure(run::make_factory<baselines::Gozar>(gz));

  EXPECT_GT(croupier_cluster, gozar_cluster);
}

TEST(Integration, LossDoesNotPartitionCroupier) {
  auto cfg = king_config(19);
  cfg.loss = net::LossConfig::uniform(0.05);
  run::World world(cfg, run::make_factory<core::Croupier>(croupier_cfg()));
  populate(world, 20, 80);
  world.simulator().run_until(sim::sec(60));
  EXPECT_EQ(world.snapshot_overlay().largest_component(), 100u);
  EXPECT_LT(world.ratio_estimates().empty() ? 1.0 : 0.0, 0.5);
  for (double e : world.ratio_estimates()) {
    EXPECT_NEAR(e, 0.2, 0.15);
  }
}

TEST(Integration, InDegreeDistributionComparableToCyclon) {
  // Fig. 6a in miniature: Croupier (proportional views, total 10) vs
  // Cyclon all-public, same out-degree; spreads should be comparable.
  auto spread = [](run::ProtocolFactory factory, std::size_t publics,
                   std::size_t privates) {
    run::World world(king_config(23), std::move(factory));
    populate(world, publics, privates);
    world.simulator().run_until(sim::sec(80));
    const auto g = world.snapshot_overlay();
    const auto deg = g.in_degrees();
    double mean = 0;
    for (auto d : deg) mean += static_cast<double>(d);
    mean /= static_cast<double>(deg.size());
    double var = 0;
    for (auto d : deg) {
      var += (static_cast<double>(d) - mean) * (static_cast<double>(d) - mean);
    }
    var /= static_cast<double>(deg.size());
    return std::make_pair(mean, std::sqrt(var));
  };

  auto ccfg = croupier_cfg();
  ccfg.sizing = core::ViewSizing::RatioProportional;
  const auto [cr_mean, cr_sd] =
      spread(run::make_factory<core::Croupier>(ccfg), 40, 160);
  pss::PssConfig cy;
  cy.view_size = 10;
  cy.shuffle_size = 5;
  const auto [cy_mean, cy_sd] =
      spread(run::make_factory<baselines::Cyclon>(cy), 200, 0);

  EXPECT_NEAR(cr_mean, cy_mean, 2.0);   // both ~view size
  EXPECT_LT(cr_sd, cy_sd * 2.5 + 2.0);  // no heavy skew
}

TEST(Integration, NatIdPathKeepsEstimatorCorrect) {
  // Full pipeline: nodes identify themselves with the real protocol, then
  // gossip; the estimate still converges to the true ratio.
  auto cfg = king_config(29);
  cfg.use_natid_protocol = true;
  run::World world(cfg, run::make_factory<core::Croupier>(croupier_cfg()));
  for (int i = 0; i < 5; ++i) world.spawn_seeded(net::NatConfig::open());
  world.simulator().run_until(sim::sec(5));
  for (int i = 0; i < 15; ++i) world.spawn(net::NatConfig::open());
  for (int i = 0; i < 60; ++i) world.spawn(net::NatConfig::natted());
  for (int i = 0; i < 20; ++i) world.spawn(net::NatConfig::upnp());
  world.simulator().run_until(sim::sec(90));

  // ω: 40 public-behaving (5+15+20) of 100.
  EXPECT_NEAR(world.true_ratio(), 0.4, 1e-9);
  for (double e : world.ratio_estimates()) {
    EXPECT_NEAR(e, 0.4, 0.12);
  }
}

}  // namespace
}  // namespace croupier
