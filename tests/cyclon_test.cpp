// Cyclon baseline tests: classic shuffle mechanics on all-public
// networks, and its documented failure mode on NATted networks.
#include <gtest/gtest.h>

#include "baselines/cyclon.hpp"
#include "test_util.hpp"

namespace croupier::baselines {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

pss::PssConfig small_cfg() {
  pss::PssConfig cfg;
  cfg.view_size = 5;
  cfg.shuffle_size = 3;
  return cfg;
}

run::World make_world(std::uint64_t seed = 1) {
  return run::World(fast_world_config(seed),
                    run::make_factory<Cyclon>(small_cfg()));
}

TEST(Cyclon, ViewsFillOnAllPublicNetwork) {
  auto world = make_world();
  populate(world, 20, 0);
  world.simulator().run_until(sim::sec(20));
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    const auto& c = dynamic_cast<const Cyclon&>(p);
    // A node mid-exchange has removed its shuffle target and not yet
    // merged the response, so capacity-1 is the steady-state floor.
    EXPECT_GE(c.view().size(), 4u);
  });
}

TEST(Cyclon, ViewNeverContainsSelf) {
  auto world = make_world(3);
  populate(world, 15, 0);
  world.simulator().run_until(sim::sec(15));
  world.for_each_sampler([&](net::NodeId id, pss::PeerSampler& p) {
    const auto& c = dynamic_cast<const Cyclon&>(p);
    EXPECT_FALSE(c.view().contains(id));
  });
}

TEST(Cyclon, DescriptorsStayFresh) {
  auto world = make_world(5);
  populate(world, 20, 0);
  world.simulator().run_until(sim::sec(30));
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    const auto& c = dynamic_cast<const Cyclon&>(p);
    for (const auto& d : c.view().entries()) {
      // With view 5 / shuffle 3 on 20 nodes, descriptors churn quickly;
      // nothing should grow ancient.
      EXPECT_LT(d.age, 25u);
    }
  });
}

TEST(Cyclon, SamplesAreLiveNodes) {
  auto world = make_world(7);
  populate(world, 12, 0);
  world.simulator().run_until(sim::sec(10));
  auto* s = world.sampler(world.alive_ids().front());
  for (int i = 0; i < 30; ++i) {
    const auto d = s->sample();
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(world.alive(d->id));
  }
}

TEST(Cyclon, ShufflesFailAgainstPrivateNodes) {
  // NAT-oblivious Cyclon on a mixed network: requests at private nodes
  // are filtered — the motivation for the whole paper.
  auto world = make_world(9);
  populate(world, 5, 15);
  world.simulator().run_until(sim::sec(20));
  EXPECT_GT(world.network().drops().nat_filtered, 0u);
}

TEST(Cyclon, MessageRoundTrip) {
  CyclonShuffleReq req;
  req.sender = pss::NodeDescriptor{1, net::NatType::Public, 0};
  req.entries = {{2, net::NatType::Public, 3}, {4, net::NatType::Public, 1}};
  wire::Writer w;
  req.encode(w);
  wire::Reader r(w.data());
  const auto back = CyclonShuffleReq::decode(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.sender, req.sender);
  EXPECT_EQ(back.entries, req.entries);
}

TEST(Cyclon, InDegreeStaysBalanced) {
  auto world = make_world(11);
  populate(world, 30, 0);
  world.simulator().run_until(sim::sec(40));
  const auto graph = world.snapshot_overlay();
  const auto degrees = graph.in_degrees();
  std::size_t max_deg = 0;
  for (std::size_t d : degrees) max_deg = std::max(max_deg, d);
  // Mean in-degree is 5 (== out-degree); no node should hoard edges.
  EXPECT_LE(max_deg, 15u);
}

TEST(Cyclon, ConnectedAfterWarmup) {
  auto world = make_world(13);
  populate(world, 25, 0);
  world.simulator().run_until(sim::sec(30));
  const auto graph = world.snapshot_overlay();
  EXPECT_EQ(graph.largest_component(), 25u);
}

}  // namespace
}  // namespace croupier::baselines
