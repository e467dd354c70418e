// Nylon baseline tests: RVP link lifecycle, hole punching, chain routing.
#include <gtest/gtest.h>

#include "baselines/nylon.hpp"
#include "test_util.hpp"

namespace croupier::baselines {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

NylonConfig small_cfg() {
  NylonConfig cfg;
  cfg.base.view_size = 5;
  cfg.base.shuffle_size = 3;
  cfg.max_rvp_links = 10;
  cfg.keepalive_rounds = 3;
  cfg.rvp_ttl_rounds = 12;
  return cfg;
}

run::World make_world(std::uint64_t seed = 1, NylonConfig cfg = small_cfg()) {
  return run::World(fast_world_config(seed),
                    run::make_factory<Nylon>(cfg));
}

TEST(Nylon, ExchangesCreateRvpLinks) {
  auto world = make_world();
  populate(world, 10, 0);
  world.simulator().run_until(sim::sec(10));
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    EXPECT_GT(dynamic_cast<const Nylon&>(p).rvp_link_count(), 0u);
  });
}

TEST(Nylon, RvpTableBounded) {
  NylonConfig cfg = small_cfg();
  cfg.max_rvp_links = 4;
  auto world = make_world(3, cfg);
  populate(world, 20, 0);
  world.simulator().run_until(sim::sec(30));
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    EXPECT_LE(dynamic_cast<const Nylon&>(p).rvp_link_count(), 4u);
  });
}

TEST(Nylon, TwinRunByteIdenticalTraffic) {
  // Twin-run regression for two determinism fixes: RVP/route eviction
  // breaks round ties on the lower id (not on hash iteration order) and
  // keepalives go out in ascending-id order. A tight table bound makes
  // eviction constant; same seed must meter identical traffic per node.
  auto run_once = [] {
    NylonConfig cfg = small_cfg();
    cfg.max_rvp_links = 4;  // force the eviction path constantly
    auto world = make_world(11, cfg);
    populate(world, 8, 16);
    world.simulator().run_until(sim::sec(40));
    std::vector<std::pair<net::NodeId, std::uint64_t>> out;
    for (const net::NodeId id : world.sorted_ids()) {
      out.emplace_back(id, world.network().meter().totals(id).bytes_total());
    }
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Nylon, HolePunchingReachesPrivateNodes) {
  auto world = make_world(5);
  populate(world, 5, 15);
  world.simulator().run_until(sim::sec(40));

  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    const auto& n = dynamic_cast<const Nylon&>(p);
    started += n.punches_started();
    completed += n.punches_completed();
  });
  EXPECT_GT(started, 0u);
  EXPECT_GT(completed, 0u);
  // Most punches succeed in a healthy static network.
  EXPECT_GE(completed * 10, started * 5);
}

TEST(Nylon, PrivateViewsFillViaPunching) {
  auto world = make_world(7);
  populate(world, 5, 15);
  world.simulator().run_until(sim::sec(40));
  world.for_each_sampler([&](net::NodeId id, pss::PeerSampler& p) {
    if (world.type_of(id) != net::NatType::Private) return;
    EXPECT_GE(dynamic_cast<const Nylon&>(p).view().size(), 3u);
  });
}

TEST(Nylon, PrivateToPrivateExchangesHappen) {
  // The defining Nylon capability: two NATted nodes gossip directly after
  // simultaneous-open punching.
  auto world = make_world(9);
  populate(world, 3, 17);
  world.simulator().run_until(sim::sec(40));
  std::size_t private_with_private_neighbor = 0;
  world.for_each_sampler([&](net::NodeId id, pss::PeerSampler& p) {
    if (world.type_of(id) != net::NatType::Private) return;
    const auto& n = dynamic_cast<const Nylon&>(p);
    for (const auto& d : n.view().entries()) {
      if (d.nat_type == net::NatType::Private) {
        ++private_with_private_neighbor;
        return;
      }
    }
  });
  EXPECT_GT(private_with_private_neighbor, 10u);
}

TEST(Nylon, LearnedFromTracksExchangePartner) {
  auto world = make_world(11);
  populate(world, 6, 6);
  world.simulator().run_until(sim::sec(20));
  world.for_each_sampler([&](net::NodeId id, pss::PeerSampler& p) {
    const auto& n = dynamic_cast<const Nylon&>(p);
    for (const auto& d : n.view().entries()) {
      EXPECT_NE(d.learned_from, net::kNilNode);
      EXPECT_NE(d.learned_from, id) << "learned_from must be a peer";
    }
  });
}

TEST(Nylon, UsableEdgeRequiresChainHead) {
  auto world = make_world(13);
  populate(world, 4, 12);
  world.simulator().run_until(sim::sec(30));
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    const auto& n = dynamic_cast<const Nylon&>(p);
    // Oracle: everyone dead. Nothing usable.
    EXPECT_TRUE(
        n.usable_neighbors([](net::NodeId) { return false; }).empty());
    // Oracle: everyone alive. All view edges usable.
    EXPECT_EQ(n.usable_neighbors([](net::NodeId) { return true; }).size(),
              n.view().size());
  });
}

TEST(Nylon, PunchReqRoundTrip) {
  NylonPunchReq m;
  m.initiator = 5;
  m.initiator_type = net::NatType::Private;
  m.target = 9;
  m.hops = 3;
  wire::Writer w;
  m.encode(w);
  wire::Reader r(w.data());
  const auto back = NylonPunchReq::decode(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.initiator, 5u);
  EXPECT_EQ(back.initiator_type, net::NatType::Private);
  EXPECT_EQ(back.target, 9u);
  EXPECT_EQ(back.hops, 3u);
}

TEST(Nylon, KeepalivesGenerateTraffic) {
  auto world = make_world(15);
  populate(world, 10, 0);
  world.simulator().run_until(sim::sec(10));
  world.network().meter().reset();
  world.simulator().run_until(sim::sec(20));
  // Count keepalive messages: with 10 nodes / RVP links present, traffic
  // clearly exceeds the two shuffle messages per round per node.
  std::uint64_t msgs = 0;
  // detlint:allow(unordered-iter) order-insensitive sum over the meter map
  for (const auto& [id, t] : world.network().meter().per_node()) {
    msgs += t.msgs_sent;
  }
  // 10 nodes x 10 rounds x (1 shuffle + 1 response) = 200 baseline; RVP
  // keepalives must add visibly on top.
  EXPECT_GT(msgs, 260u);
}

TEST(Nylon, ConnectedOverlayOnMixedNetwork) {
  auto world = make_world(17);
  populate(world, 5, 20);
  world.simulator().run_until(sim::sec(40));
  EXPECT_EQ(world.snapshot_overlay().largest_component(), 25u);
}

}  // namespace
}  // namespace croupier::baselines
