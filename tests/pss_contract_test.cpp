// The PSS contract, enforced uniformly across all five protocol
// implementations (Croupier, Cyclon, Gozar, Nylon, ARRG) with
// parameterized sweeps:
//   - views never contain the node itself or duplicate entries;
//   - view sizes never exceed their bounds;
//   - samples name nodes that exist;
//   - the overlay is connected after warm-up;
//   - the protocol keeps working after half the network restarts.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "test_util.hpp"

namespace croupier {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

struct ProtoCase {
  const char* name;
  bool needs_publics;  // NAT-aware protocols need a public population
};

run::ProtocolFactory make_factory(const std::string& name) {
  pss::PssConfig base;
  base.view_size = 6;
  base.shuffle_size = 3;
  if (name == "croupier") {
    core::CroupierConfig cfg;
    cfg.base = base;
    return run::make_factory<core::Croupier>(cfg);
  }
  if (name == "cyclon") return run::make_factory<baselines::Cyclon>(base);
  if (name == "gozar") {
    baselines::GozarConfig cfg;
    cfg.base = base;
    return run::make_factory<baselines::Gozar>(cfg);
  }
  if (name == "nylon") {
    baselines::NylonConfig cfg;
    cfg.base = base;
    return run::make_factory<baselines::Nylon>(cfg);
  }
  baselines::ArrgConfig cfg;
  cfg.base = base;
  return run::make_factory<baselines::Arrg>(cfg);
}

// NAT-oblivious protocols run all-public so their contract is testable.
bool mixed_population(const std::string& name) {
  return name == "croupier" || name == "gozar" || name == "nylon";
}

class PssContract : public ::testing::TestWithParam<const char*> {};

TEST_P(PssContract, ViewInvariantsHoldOverTime) {
  const std::string name = GetParam();
  run::World world(fast_world_config(11), make_factory(name));
  if (mixed_population(name)) {
    populate(world, 8, 24);
  } else {
    populate(world, 32, 0);
  }
  // Check invariants repeatedly, not just at the end.
  for (int checkpoint = 1; checkpoint <= 5; ++checkpoint) {
    world.simulator().run_until(sim::sec(checkpoint * 8));
    world.for_each_sampler([&](net::NodeId id, pss::PeerSampler& p) {
      const auto neighbors = p.out_neighbors();
      std::set<net::NodeId> distinct;
      for (net::NodeId n : neighbors) {
        EXPECT_NE(n, id) << name << ": self in view";
        distinct.insert(n);
      }
      EXPECT_EQ(distinct.size(), neighbors.size())
          << name << ": duplicate view entries";
      // Croupier has two views of view_size each; others one.
      const std::size_t bound = name == "croupier" ? 12u : 6u;
      EXPECT_LE(neighbors.size(), bound) << name;
    });
  }
}

TEST_P(PssContract, SamplesNameExistingNodes) {
  const std::string name = GetParam();
  run::World world(fast_world_config(13), make_factory(name));
  if (mixed_population(name)) {
    populate(world, 8, 24);
  } else {
    populate(world, 32, 0);
  }
  world.simulator().run_until(sim::sec(25));
  for (net::NodeId id : world.alive_ids()) {
    auto* s = world.sampler(id);
    if (s == nullptr) continue;
    for (int i = 0; i < 10; ++i) {
      const auto peer = s->sample();
      ASSERT_TRUE(peer.has_value()) << name;
      EXPECT_NE(peer->id, id) << name << ": sampled self";
      EXPECT_TRUE(world.alive(peer->id)) << name << ": sampled ghost";
    }
  }
}

TEST_P(PssContract, OverlayConnectedAfterWarmup) {
  const std::string name = GetParam();
  run::World world(fast_world_config(17), make_factory(name));
  if (mixed_population(name)) {
    populate(world, 8, 24);
  } else {
    populate(world, 32, 0);
  }
  world.simulator().run_until(sim::sec(40));
  EXPECT_EQ(world.snapshot_overlay().largest_component(), 32u) << name;
}

TEST_P(PssContract, SurvivesHalfTheNetworkRestarting) {
  const std::string name = GetParam();
  run::World world(fast_world_config(19), make_factory(name));
  const bool mixed = mixed_population(name);
  if (mixed) {
    populate(world, 10, 30);
  } else {
    populate(world, 40, 0);
  }
  world.simulator().run_until(sim::sec(20));

  // Kill half of each class, then respawn the same counts.
  std::size_t killed_pub = 0;
  std::size_t killed_priv = 0;
  auto victims = world.alive_ids();  // copy
  for (net::NodeId id : victims) {
    if (world.type_of(id) == net::NatType::Public) {
      if (killed_pub < (mixed ? 5u : 20u)) {
        world.kill(id);
        ++killed_pub;
      }
    } else if (killed_priv < 15u) {
      world.kill(id);
      ++killed_priv;
    }
  }
  for (std::size_t i = 0; i < killed_pub; ++i) {
    world.spawn(net::NatConfig::open());
  }
  for (std::size_t i = 0; i < killed_priv; ++i) {
    world.spawn(net::NatConfig::natted());
  }

  world.simulator().run_until(sim::sec(70));
  EXPECT_EQ(world.alive_count(), 40u);
  const auto g = world.snapshot_overlay(/*usable_only=*/true);
  EXPECT_GE(g.largest_component_fraction(), 0.95) << name;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, PssContract,
                         ::testing::Values("croupier", "cyclon", "gozar",
                                           "nylon", "arrg"));

}  // namespace
}  // namespace croupier
