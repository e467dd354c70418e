// Lifecycle stress: nodes dying at awkward protocol moments must never
// crash the simulation or corrupt survivors' state.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "runtime/scenario.hpp"
#include "test_util.hpp"

namespace croupier::run {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

TEST(Lifecycle, KillDuringNatIdentificationIsSafe) {
  auto cfg = fast_world_config(1);
  cfg.use_natid_protocol = true;
  cfg.natid_timeout = sim::sec(3);
  World world(cfg, make_factory<core::Croupier>());
  for (int i = 0; i < 3; ++i) world.spawn_seeded(net::NatConfig::open());
  world.simulator().run_until(sim::sec(1));

  // Spawn a private node and kill it while its NAT-ID run (and its armed
  // timeout) is still pending; the dangling timeout must fire into void.
  const auto victim = world.spawn(net::NatConfig::natted());
  world.simulator().run_until(world.simulator().now() + sim::msec(10));
  world.kill(victim);
  world.simulator().run_until(world.simulator().now() + sim::sec(10));
  EXPECT_FALSE(world.alive(victim));
  EXPECT_EQ(world.alive_count(), 3u);
}

TEST(Lifecycle, KillDuringNatIdNeverStartsGossip) {
  auto cfg = fast_world_config(2);
  cfg.use_natid_protocol = true;
  World world(cfg, make_factory<core::Croupier>());
  for (int i = 0; i < 3; ++i) world.spawn_seeded(net::NatConfig::open());
  world.simulator().run_until(sim::sec(1));

  const auto victim = world.spawn(net::NatConfig::natted());
  EXPECT_EQ(world.sampler(victim), nullptr);  // still identifying
  world.kill(victim);
  world.simulator().run_until(sim::sec(20));
  // No round events for the dead node ever fired (would crash on lookup
  // if the runtime kept stale pointers).
  EXPECT_EQ(world.rounds_of(victim), 0u);
}

TEST(Lifecycle, MassChurnDuringJoinWaveIsSafe) {
  // Joins, churn and deaths all interleaving: the stress case for the
  // runtime's event/ownership discipline.
  World world(fast_world_config(3), make_factory<core::Croupier>());
  const auto privates =
      JoinProcess::poisson(world, 60, net::NatConfig::natted(), sim::msec(100));
  const auto publics =
      JoinProcess::poisson(world, 15, net::NatConfig::open(), sim::msec(400));
  privates->start(0);
  publics->start(0);
  ChurnProcess churn(world, 0.05, net::NatConfig::open(),
                     net::NatConfig::natted());
  churn.start(sim::sec(2));
  CatastropheProcess crash(world, 0.5);
  crash.start(sim::sec(15));
  world.simulator().run_until(sim::sec(60));
  EXPECT_GT(world.alive_count(), 10u);
  // Survivors keep gossiping and the overlay reconnects.
  const auto g = world.snapshot_overlay(/*usable_only=*/true);
  EXPECT_GE(g.largest_component_fraction(), 0.9);
}

TEST(Lifecycle, RepeatedCatastrophesWithRejoins) {
  World world(fast_world_config(4), make_factory<core::Croupier>());
  populate(world, 10, 40);
  std::vector<std::unique_ptr<ScenarioProcess>> waves;
  const auto arm = [&waves](std::unique_ptr<ScenarioProcess> p,
                            sim::SimTime at) {
    p->start(at);
    waves.push_back(std::move(p));
  };
  for (int wave = 0; wave < 3; ++wave) {
    const auto t = sim::sec(10 + wave * 20);
    arm(std::make_unique<CatastropheProcess>(world, 0.4), t);
    // Refill with fresh nodes shortly after each failure.
    arm(JoinProcess::poisson(world, 8, net::NatConfig::open(), sim::msec(200)),
        t + sim::sec(2));
    arm(JoinProcess::poisson(world, 12, net::NatConfig::natted(),
                             sim::msec(200)),
        t + sim::sec(2));
  }
  world.simulator().run_until(sim::sec(90));
  EXPECT_GT(world.alive_count(), 20u);
  EXPECT_GT(world.count(net::NatType::Public), 0u);
  for (double e : world.ratio_estimates()) {
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
  }
  const auto g = world.snapshot_overlay();
  EXPECT_GE(g.largest_component_fraction(), 0.9);
}

// A ticking process destroyed with its next tick still queued: the
// Ticker's destructor clears the chain's guard, so that tick fires as a
// no-op instead of running on the dead process.
TEST(Lifecycle, DestroyedChurnLeavesItsQueuedTickInert) {
  // Two nodes per class at fraction 0.5: every tick replaces exactly one
  // node of each class.
  World world(fast_world_config(6), make_factory<core::Croupier>());
  populate(world, 2, 2);
  {
    ChurnProcess churn(world, 0.5, net::NatConfig::open(),
                       net::NatConfig::natted());
    churn.start(sim::sec(1));
    world.simulator().run_until(sim::msec(2500));  // ticks at 1 and 2 s
    EXPECT_EQ(churn.replaced(), 4u);
  }  // the t=3 s tick is still queued
  const std::vector<net::NodeId> members = world.sorted_ids();
  world.simulator().run_until(sim::sec(10));
  EXPECT_EQ(world.sorted_ids(), members);
}

TEST(Lifecycle, WholeWorldTeardownMidFlight) {
  // Destroying the world with thousands of in-flight events and pending
  // timeouts must be clean (ASan-visible if not).
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto cfg = fast_world_config(seed);
    cfg.use_natid_protocol = seed == 2;
    World world(cfg, make_factory<core::Croupier>());
    for (int i = 0; i < 3; ++i) world.spawn_seeded(net::NatConfig::open());
    populate(world, 5, 20);
    world.simulator().run_until(sim::msec(1500));  // mid-everything
    // world destructor runs here with a hot event queue
  }
  SUCCEED();
}

}  // namespace
}  // namespace croupier::run
