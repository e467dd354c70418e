// Gozar baseline tests: parent management, one-hop relaying, usable-edge
// semantics.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/gozar.hpp"
#include "test_util.hpp"

namespace croupier::baselines {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

GozarConfig small_cfg() {
  GozarConfig cfg;
  cfg.base.view_size = 5;
  cfg.base.shuffle_size = 3;
  cfg.num_parents = 2;
  return cfg;
}

run::World make_world(std::uint64_t seed = 1, GozarConfig cfg = small_cfg()) {
  return run::World(fast_world_config(seed),
                    run::make_factory<Gozar>(cfg));
}

TEST(Gozar, PrivateNodesAcquireParents) {
  auto world = make_world();
  populate(world, 6, 12);
  world.simulator().run_until(sim::sec(10));
  world.for_each_sampler([&](net::NodeId id, pss::PeerSampler& p) {
    if (world.type_of(id) != net::NatType::Private) return;
    const auto& g = dynamic_cast<const Gozar&>(p);
    EXPECT_GE(g.parents().size(), 1u);
    for (net::NodeId parent : g.parents()) {
      EXPECT_EQ(world.type_of(parent), net::NatType::Public);
    }
  });
}

TEST(Gozar, PublicNodesHaveNoParents) {
  auto world = make_world(3);
  populate(world, 6, 6);
  world.simulator().run_until(sim::sec(10));
  world.for_each_sampler([&](net::NodeId id, pss::PeerSampler& p) {
    if (world.type_of(id) != net::NatType::Public) return;
    EXPECT_TRUE(dynamic_cast<const Gozar&>(p).parents().empty());
  });
}

TEST(Gozar, PrivateDescriptorsCarryParents) {
  auto world = make_world(5);
  populate(world, 6, 12);
  world.simulator().run_until(sim::sec(25));
  std::size_t private_descs = 0;
  std::size_t with_parents = 0;
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    const auto& g = dynamic_cast<const Gozar&>(p);
    for (const auto& d : g.view().entries()) {
      if (d.nat_type != net::NatType::Private) continue;
      ++private_descs;
      if (!d.parents.empty()) ++with_parents;
    }
  });
  ASSERT_GT(private_descs, 0u);
  // Nearly all circulating private descriptors advertise relay parents.
  EXPECT_GE(with_parents * 10, private_descs * 9);
}

TEST(Gozar, ExchangesReachPrivateNodes) {
  // Private nodes must participate in gossip as full targets via relays:
  // their views fill and carry mixed descriptors.
  auto world = make_world(7);
  populate(world, 5, 15);
  world.simulator().run_until(sim::sec(30));
  world.for_each_sampler([&](net::NodeId id, pss::PeerSampler& p) {
    if (world.type_of(id) != net::NatType::Private) return;
    const auto& g = dynamic_cast<const Gozar&>(p);
    EXPECT_GE(g.view().size(), 3u);
  });
}

TEST(Gozar, ParentFailureTriggersReselection) {
  GozarConfig cfg = small_cfg();
  cfg.keepalive_rounds = 2;
  cfg.parent_timeout_rounds = 6;
  auto world = make_world(9, cfg);
  populate(world, 6, 6);
  world.simulator().run_until(sim::sec(10));

  // Find one private node and kill all its parents.
  net::NodeId victim = net::kNilNode;
  std::vector<net::NodeId> parents;
  world.for_each_sampler([&](net::NodeId id, pss::PeerSampler& p) {
    if (victim != net::kNilNode) return;
    if (world.type_of(id) != net::NatType::Private) return;
    const auto& g = dynamic_cast<const Gozar&>(p);
    if (!g.parents().empty()) {
      victim = id;
      parents = g.parents();
    }
  });
  ASSERT_NE(victim, net::kNilNode);
  for (net::NodeId parent : parents) {
    if (world.alive(parent)) world.kill(parent);
  }

  world.simulator().run_until(world.simulator().now() + sim::sec(30));
  ASSERT_TRUE(world.alive(victim));
  const auto& g = dynamic_cast<const Gozar&>(*world.sampler(victim));
  EXPECT_FALSE(g.parents().empty());
  for (net::NodeId parent : g.parents()) {
    EXPECT_TRUE(world.alive(parent));
  }
}

TEST(Gozar, UsableEdgeNeedsLiveRelay) {
  auto world = make_world(11);
  populate(world, 5, 10);
  world.simulator().run_until(sim::sec(20));

  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    const auto& g = dynamic_cast<const Gozar&>(p);
    // Liveness oracle that declares all public nodes dead: private
    // targets become unusable (their relays are gone), so only nothing or
    // public targets remain — and those are "dead" too => empty.
    const auto no_publics = [&world](net::NodeId id) {
      return world.alive(id) && world.type_of(id) == net::NatType::Private;
    };
    for (net::NodeId n : g.usable_neighbors(no_publics)) {
      // Only private targets can appear, and each must have a live parent
      // under this oracle — impossible since parents are public.
      ADD_FAILURE() << "edge to " << n << " should be unusable";
    }
  });
}

TEST(Gozar, MessageRoundTrips) {
  GozarShuffleReq req;
  req.sender = GozarDescriptor{1, net::NatType::Private, 0, {7, 8}};
  req.entries = {GozarDescriptor{2, net::NatType::Public, 3, {}}};
  wire::Writer w;
  req.encode(w);
  wire::Reader r(w.data());
  const auto back = GozarShuffleReq::decode(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.sender, req.sender);
  EXPECT_EQ(back.entries, req.entries);

  GozarRelayedReq rel;
  rel.final_target = 9;
  rel.inner = req;
  wire::Writer w2;
  rel.encode(w2);
  wire::Reader r2(w2.data());
  const auto back2 = GozarRelayedReq::decode(r2);
  EXPECT_TRUE(r2.exhausted());
  EXPECT_EQ(back2.final_target, 9u);
  EXPECT_EQ(back2.inner.sender, req.sender);
}

TEST(Gozar, ConnectedOverlayOnMixedNetwork) {
  auto world = make_world(13);
  populate(world, 5, 20);
  world.simulator().run_until(sim::sec(30));
  const auto graph = world.snapshot_overlay();
  EXPECT_EQ(graph.largest_component(), 25u);
}

}  // namespace
}  // namespace croupier::baselines
