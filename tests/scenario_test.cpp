// ScenarioProcess subsystem: the composable workload pipeline — flash
// crowds, correlated failures, churn quota-carry edge cases, and the
// Experiment's view of its processes.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/scenario.hpp"
#include "runtime/spec.hpp"
#include "test_util.hpp"

namespace croupier::run {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

// Regression (PR 5): a churn quota carry accrued while a class was
// populated used to survive the class going extinct, burst-replacing the
// first node of that class to reappear.
TEST(Churn, CarryIsDroppedWhileAClassIsEmpty) {
  World world(fast_world_config(9), make_factory<core::Croupier>());
  for (int i = 0; i < 3; ++i) world.spawn(net::NatConfig::open());
  const auto lone_private = world.spawn(net::NatConfig::natted());

  ChurnProcess churn(world, 0.95, net::NatConfig::open(),
                     net::NatConfig::natted());
  churn.start(sim::sec(1));
  // First tick (t=1 s): the private carry accrues 0.95 — below quota, so
  // the lone private survives it.
  world.simulator().run_until(sim::msec(1500));
  ASSERT_TRUE(world.alive(lone_private));
  world.kill(lone_private);

  // Two ticks with zero privates: the stale 0.95 must be dropped, not
  // kept simmering.
  world.simulator().run_until(sim::msec(3500));
  const auto fresh = world.spawn(net::NatConfig::natted());
  // Next tick accrues only this tick's 0.95 — still below quota. With
  // the stale carry kept, it would reach 1.9 and replace `fresh`
  // immediately.
  world.simulator().run_until(sim::msec(4500));
  EXPECT_TRUE(world.alive(fresh));
}

TEST(Churn, ReplacesTheFullQuotaOfASmallClass) {
  // Ten publics among 1000 nodes: a rejection pick misses the class 99%
  // of the time, so any cap on the attempts silently drops replacements.
  // 20 ticks at 10% per class must replace 20 publics and 1980 privates.
  World world(fast_world_config(5), make_factory<core::Croupier>());
  populate(world, 10, 990);
  ChurnProcess churn(world, 0.1, net::NatConfig::open(),
                     net::NatConfig::natted());
  churn.start(sim::sec(1));
  world.simulator().run_until(sim::msec(20500));  // ticks at 1..20 s
  EXPECT_EQ(churn.replaced(), 2000u);
  EXPECT_EQ(world.count(net::NatType::Public), 10u);
}

TEST(FlashCrowd, RampSpreadsArrivalsAcrossTheWindow) {
  // 60 extra nodes over a 4 s window starting at t=5 s: the triangular
  // profile puts exactly half the arrivals in the first half-window.
  Experiment experiment({.protocol = "croupier", .nodes = 20, .ratio = 0.5,
                         .join = ExperimentSpec::JoinKind::Instant,
                         .flash_publics = 30, .flash_privates = 10,
                         .flash_at_s = 5.0, .flash_over_s = 4.0,
                         .duration_s = 10,
                         .record = ExperimentSpec::RecordKind::None},
                        17);
  experiment.run_until(sim::sec(5));
  EXPECT_EQ(experiment.world().alive_count(), 20u);  // surge not started
  experiment.run_until(sim::sec(7));                 // window midpoint
  EXPECT_EQ(experiment.world().alive_count(), 40u);  // exactly half in
  experiment.run_until(sim::sec(10));
  EXPECT_EQ(experiment.world().alive_count(), 60u);  // everyone arrived
  EXPECT_EQ(experiment.scenario_stats().spawned, 40u);
}

TEST(CorrelatedFailure, RegionCohortIsLatencyCompact) {
  auto cfg = fast_world_config(11);
  cfg.latency = World::LatencyKind::Coordinate;
  World world(cfg, make_factory<core::Croupier>());
  populate(world, 10, 40);
  const std::vector<net::NodeId> everyone = world.alive_ids();

  CorrelatedFailureProcess failure(world, 0.3,
                                   CorrelatedFailureProcess::Corr::Region);
  failure.start(sim::sec(5));
  world.simulator().run_until(sim::sec(5) + sim::msec(1));
  EXPECT_EQ(world.alive_count(), 35u);  // floor(0.3 * 50)
  EXPECT_EQ(failure.stats().killed, 15u);

  // The cohort is a latency neighbourhood: victims sit closer to each
  // other (in the model's deterministic metric) than the population at
  // large does on average.
  const auto& latency = world.network().latency_model();
  const auto mean_pairwise = [&latency](const std::vector<net::NodeId>& ids) {
    double sum = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (std::size_t j = i + 1; j < ids.size(); ++j) {
        sum += static_cast<double>(latency.base_latency(ids[i], ids[j]));
        ++pairs;
      }
    }
    return sum / static_cast<double>(pairs);
  };
  std::vector<net::NodeId> victims;
  for (const net::NodeId id : everyone) {
    if (!world.alive(id)) victims.push_back(id);
  }
  ASSERT_EQ(victims.size(), 15u);
  EXPECT_LT(mean_pairwise(victims), mean_pairwise(everyone));
}

TEST(CorrelatedFailure, UniformModeMatchesCatastropheSampling) {
  // Same seed, same fraction: the uniform cohort must replay
  // CatastropheProcess's sampling draw for draw.
  const auto survivors_with = [](bool catastrophe) {
    World world(fast_world_config(21), make_factory<core::Croupier>());
    populate(world, 10, 40);
    CorrelatedFailureProcess failure(
        world, 0.5, CorrelatedFailureProcess::Corr::Uniform);
    CatastropheProcess reference(world, 0.5);
    if (catastrophe) {
      reference.start(sim::sec(5));
    } else {
      failure.start(sim::sec(5));
    }
    world.simulator().run_until(sim::sec(5) + sim::msec(1));
    return world.alive_ids();
  };
  EXPECT_EQ(survivors_with(true), survivors_with(false));
}

TEST(ScenarioPipeline, ExperimentExposesItsProcesses) {
  Experiment experiment({.protocol = "croupier", .nodes = 40, .ratio = 0.25,
                         .flash_publics = 10, .flash_privates = 10,
                         .flash_at_s = 15.0, .flash_over_s = 2.0, .churn = 0.01,
                         .churn_at_s = 10, .failure_frac = 0.2,
                         .failure_at_s = 20,
                         .failure_corr = ExperimentSpec::FailureCorr::Private,
                         .duration_s = 25,
                         .record = ExperimentSpec::RecordKind::None},
                        5);
  // Poisson pubs + poisson privs + flash + churn + failure.
  EXPECT_EQ(experiment.scenario().size(), 5u);
  experiment.run();
  const auto stats = experiment.scenario_stats();
  EXPECT_EQ(stats.spawned, 40u + 20u);   // joins + the full surge
  EXPECT_EQ(stats.killed, 12u);          // floor(0.2 * 60)
  EXPECT_GT(stats.replaced, 0u);
  EXPECT_EQ(experiment.world().alive_count(), 60u - 12u);
}

}  // namespace
}  // namespace croupier::run
