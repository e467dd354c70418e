// Runtime orchestration tests: node lifecycle, round scheduling, scenario
// processes (joins, churn, catastrophe), recorders.
#include <gtest/gtest.h>

#include "runtime/recorder.hpp"
#include "runtime/scenario.hpp"
#include "test_util.hpp"

namespace croupier::run {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

core::CroupierConfig proto_cfg() {
  core::CroupierConfig cfg;
  cfg.base.view_size = 5;
  cfg.base.shuffle_size = 3;
  return cfg;
}

World make_world(std::uint64_t seed = 1) {
  return World(fast_world_config(seed),
               make_factory<core::Croupier>(proto_cfg()));
}

TEST(World, SpawnAssignsDistinctIds) {
  auto world = make_world();
  const auto a = world.spawn(net::NatConfig::open());
  const auto b = world.spawn(net::NatConfig::natted());
  EXPECT_NE(a, b);
  EXPECT_TRUE(world.alive(a));
  EXPECT_TRUE(world.alive(b));
  EXPECT_EQ(world.alive_count(), 2u);
}

TEST(World, CountsAndRatio) {
  auto world = make_world();
  populate(world, 2, 8);
  EXPECT_EQ(world.count(net::NatType::Public), 2u);
  EXPECT_EQ(world.count(net::NatType::Private), 8u);
  EXPECT_DOUBLE_EQ(world.true_ratio(), 0.2);
}

TEST(World, KillRemovesEverywhere) {
  auto world = make_world();
  populate(world, 3, 3);
  const auto victim = world.alive_ids().front();
  world.kill(victim);
  EXPECT_FALSE(world.alive(victim));
  EXPECT_EQ(world.alive_count(), 5u);
  EXPECT_FALSE(world.network().attached(victim));
  EXPECT_EQ(world.sampler(victim), nullptr);
}

TEST(World, IdsNeverReused) {
  auto world = make_world();
  const auto a = world.spawn(net::NatConfig::open());
  world.kill(a);
  const auto b = world.spawn(net::NatConfig::open());
  EXPECT_NE(a, b);
}

TEST(World, RoundsExecuteAtRoundPeriod) {
  auto world = make_world();
  const auto id = world.spawn(net::NatConfig::open());
  world.simulator().run_until(sim::sec(10));
  // Phase in [0,1s), then one round per second: at t=10 the node has run
  // 9 or 10 rounds.
  EXPECT_GE(world.rounds_of(id), 9u);
  EXPECT_LE(world.rounds_of(id), 10u);
}

TEST(World, ClockSkewSpreadsRoundCounts) {
  auto cfg = fast_world_config(5);
  cfg.clock_skew = 0.05;
  World world(cfg, make_factory<core::Croupier>(proto_cfg()));
  populate(world, 20, 0);
  world.simulator().run_until(sim::sec(100));
  std::uint64_t lo = UINT64_MAX;
  std::uint64_t hi = 0;
  for (net::NodeId id : world.alive_ids()) {
    lo = std::min(lo, world.rounds_of(id));
    hi = std::max(hi, world.rounds_of(id));
  }
  EXPECT_GE(hi - lo, 3u);  // 5% skew over 100 rounds
  EXPECT_NEAR(static_cast<double>(hi), 100.0, 8.0);
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto world = make_world(42);
    populate(world, 5, 15);
    world.simulator().run_until(sim::sec(30));
    std::vector<double> est = world.ratio_estimates();
    return std::make_pair(world.simulator().events_processed(), est);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(World, SortedSnapshotBasisSurvivesChurn) {
  // Regression for a determinism fix: every published view (class_map,
  // for_each_sampler visit order, overlay vertex order) iterates the
  // ascending-id basis, never hash-table or swap-remove order. Kills
  // scramble alive_ids_'s internal order via swap-remove; the views must
  // not see that.
  auto world = make_world(7);
  populate(world, 8, 24);
  world.simulator().run_until(sim::sec(10));
  const auto ids0 = world.alive_ids();
  world.kill(ids0[1]);
  world.kill(ids0[5]);
  world.kill(ids0[9]);
  world.simulator().run_until(sim::sec(20));

  const auto sorted = world.sorted_ids();
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_EQ(sorted.size(), world.alive_count());

  const auto classes = world.class_map();
  EXPECT_TRUE(std::is_sorted(
      classes.begin(), classes.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));

  std::vector<net::NodeId> visited;
  world.for_each_sampler(
      [&](net::NodeId id, pss::PeerSampler&) { visited.push_back(id); });
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));

  const auto overlay = world.snapshot_overlay();
  EXPECT_TRUE(std::is_sorted(overlay.ids().begin(), overlay.ids().end()));
}

TEST(World, TwinRunAggregatesAfterChurnBitIdentical) {
  // Twin-run regression: two same-seed runs through abrupt churn must
  // agree bit-for-bit on every float aggregate the recorders publish.
  auto run_once = [] {
    auto world = make_world(42);
    populate(world, 6, 18);
    world.simulator().run_until(sim::sec(15));
    const auto ids = world.alive_ids();
    world.kill(ids[2]);
    world.kill(ids[7]);
    world.simulator().run_until(sim::sec(30));
    return std::make_pair(world.ratio_estimates(), world.class_map());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);  // exact double equality, not near
  EXPECT_EQ(a.second, b.second);
}

TEST(World, DifferentSeedsDiverge) {
  auto overlay_for = [](std::uint64_t seed) {
    auto world = make_world(seed);
    populate(world, 5, 15);
    world.simulator().run_until(sim::sec(30));
    // Flatten the overlay's adjacency as the divergence observable
    // (event *counts* can legitimately coincide under constant latency).
    std::vector<net::NodeId> edges;
    world.for_each_sampler([&](net::NodeId id, pss::PeerSampler& p) {
      for (net::NodeId n : p.out_neighbors()) {
        edges.push_back(id * 1000 + n);
      }
    });
    std::sort(edges.begin(), edges.end());
    return edges;
  };
  EXPECT_NE(overlay_for(1), overlay_for(999));
}

TEST(Scenario, PoissonJoinsAllArrive) {
  auto world = make_world(7);
  const auto joins =
      JoinProcess::poisson(world, 50, net::NatConfig::natted(), sim::msec(20));
  joins->start(0);
  world.simulator().run_until(sim::sec(30));
  EXPECT_EQ(world.alive_count(), 50u);
}

TEST(Scenario, PoissonJoinsSpreadOverTime) {
  auto world = make_world(9);
  const auto joins =
      JoinProcess::poisson(world, 100, net::NatConfig::open(), sim::msec(100));
  joins->start(0);
  world.simulator().run_until(sim::msec(100));
  const auto early = world.alive_count();
  EXPECT_LT(early, 100u);  // not all at once
  world.simulator().run_until(sim::sec(120));
  EXPECT_EQ(world.alive_count(), 100u);
}

TEST(Scenario, FixedJoinsExactCadence) {
  auto world = make_world(11);
  const auto joins =
      JoinProcess::fixed(world, 10, net::NatConfig::open(), sim::msec(42));
  joins->start(sim::sec(1));
  world.simulator().run_until(sim::sec(1));
  EXPECT_EQ(world.alive_count(), 1u);  // first joins exactly at start
  world.simulator().run_until(sim::sec(1) + sim::msec(42 * 9));
  EXPECT_EQ(world.alive_count(), 10u);
}

TEST(Scenario, CatastropheKillsRequestedFraction) {
  auto world = make_world(13);
  populate(world, 20, 80);
  CatastropheProcess crash(world, 0.6);
  crash.start(sim::sec(5));
  world.simulator().run_until(sim::sec(6));
  EXPECT_EQ(world.alive_count(), 40u);
}

TEST(Scenario, ChurnKeepsPopulationAndRatioStable) {
  auto world = make_world(15);
  populate(world, 10, 40);
  ChurnProcess churn(world, 0.05, net::NatConfig::open(),
                     net::NatConfig::natted());
  churn.start(sim::sec(5));
  world.simulator().run_until(sim::sec(60));
  EXPECT_EQ(world.alive_count(), 50u);
  EXPECT_DOUBLE_EQ(world.true_ratio(), 0.2);
  // ~5% of 50 nodes over ~55 rounds.
  EXPECT_NEAR(static_cast<double>(churn.replaced()), 0.05 * 50 * 55, 30.0);
}

TEST(Scenario, LowChurnAccumulatesFractions) {
  auto world = make_world(17);
  populate(world, 10, 10);
  ChurnProcess churn(world, 0.001, net::NatConfig::open(),
                     net::NatConfig::natted());
  churn.start(0);
  world.simulator().run_until(sim::sec(300));
  // 0.1%/round x 20 nodes x 300 rounds = ~6 replacements.
  EXPECT_GE(churn.replaced(), 3u);
  EXPECT_LE(churn.replaced(), 12u);
  EXPECT_EQ(world.alive_count(), 20u);
}

TEST(Recorder, EstimationSeriesSamplesOverTime) {
  auto world = make_world(19);
  populate(world, 5, 20);
  EstimationRecorder rec(world, {sim::sec(1), 2});
  rec.start(sim::sec(1));
  world.simulator().run_until(sim::sec(30));
  ASSERT_GE(rec.series().size(), 29u);
  EXPECT_DOUBLE_EQ(rec.series().front().sample.truth, 0.2);
  // Error should be sane (estimates live in [0,1]).
  for (const auto& p : rec.series()) {
    EXPECT_LE(p.sample.max_error, 1.0);
    EXPECT_GE(p.sample.avg_error, 0.0);
  }
  // After warm-up the population error must have shrunk.
  EXPECT_LT(rec.latest().sample.avg_error, 0.1);
}

TEST(Recorder, MinRoundsExcludesFreshNodes) {
  auto world = make_world(21);
  populate(world, 5, 5);
  // Before any rounds ran, min_rounds=2 filters everyone out.
  EXPECT_TRUE(world.ratio_estimates(2).empty());
  world.simulator().run_until(sim::sec(5));
  EXPECT_FALSE(world.ratio_estimates(2).empty());
}

TEST(Recorder, GraphStatsSeries) {
  auto world = make_world(23);
  populate(world, 20, 0);
  GraphStatsRecorder rec(world, {sim::sec(5), 0});
  rec.start(sim::sec(5));
  world.simulator().run_until(sim::sec(21));
  ASSERT_EQ(rec.series().size(), 4u);
  const auto& last = rec.series().back();
  EXPECT_EQ(last.nodes, 20u);
  EXPECT_GT(last.edges, 0u);
  EXPECT_GT(last.avg_path_length, 1.0);
  EXPECT_LT(last.avg_path_length, 10.0);
}

TEST(World, SnapshotUsableOnlyFiltersDeadTargets) {
  auto world = make_world(25);
  populate(world, 5, 15);
  world.simulator().run_until(sim::sec(20));
  // Kill half the privates; the usable snapshot must not reference them.
  std::vector<net::NodeId> victims;
  for (net::NodeId id : world.alive_ids()) {
    if (world.type_of(id) == net::NatType::Private && victims.size() < 7) {
      victims.push_back(id);
    }
  }
  for (net::NodeId v : victims) world.kill(v);
  const auto g = world.snapshot_overlay(/*usable_only=*/true);
  EXPECT_EQ(g.node_count(), 13u);
}

}  // namespace
}  // namespace croupier::run
