// ARRG extension-baseline tests: open-list fallback and the resulting
// selection bias.
#include <gtest/gtest.h>

#include "baselines/arrg.hpp"
#include "test_util.hpp"

namespace croupier::baselines {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

ArrgConfig small_cfg() {
  ArrgConfig cfg;
  cfg.base.view_size = 5;
  cfg.base.shuffle_size = 3;
  cfg.open_list_size = 8;
  return cfg;
}

run::World make_world(std::uint64_t seed = 1) {
  return run::World(fast_world_config(seed),
                    run::make_factory<Arrg>(small_cfg()));
}

TEST(Arrg, WorksOnAllPublicNetwork) {
  auto world = make_world();
  populate(world, 15, 0);
  world.simulator().run_until(sim::sec(20));
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    const auto& a = dynamic_cast<const Arrg&>(p);
    EXPECT_GE(a.view().size(), 3u);
  });
}

TEST(Arrg, OpenListFillsWithSuccessfulPartners) {
  auto world = make_world(3);
  populate(world, 10, 0);
  world.simulator().run_until(sim::sec(15));
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    EXPECT_FALSE(dynamic_cast<const Arrg&>(p).open_list().empty());
  });
}

TEST(Arrg, OpenListBounded) {
  auto world = make_world(5);
  populate(world, 30, 0);
  world.simulator().run_until(sim::sec(30));
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    EXPECT_LE(dynamic_cast<const Arrg&>(p).open_list().size(), 8u);
  });
}

TEST(Arrg, FallsBackOnNatFailures) {
  auto world = make_world(7);
  populate(world, 5, 15);  // most targets unreachable
  world.simulator().run_until(sim::sec(30));
  std::uint64_t fallbacks = 0;
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    fallbacks += dynamic_cast<const Arrg&>(p).fallback_count();
  });
  EXPECT_GT(fallbacks, 0u);
}

TEST(Arrg, OpenListContainsOnlyReachablePartnersOnMixedNetwork) {
  // A private node can appear in someone's open list only if it initiated
  // an exchange with them (its responses make it a "successful partner").
  // What matters for bias: publics dominate open lists.
  auto world = make_world(9);
  populate(world, 5, 15);
  world.simulator().run_until(sim::sec(30));
  std::size_t total = 0;
  std::size_t publics = 0;
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    for (net::NodeId id : dynamic_cast<const Arrg&>(p).open_list()) {
      ++total;
      if (world.alive(id) && world.type_of(id) == net::NatType::Public) {
        ++publics;
      }
    }
  });
  ASSERT_GT(total, 0u);
  // Publics are 25% of the population but clearly over-represented in
  // open lists — ARRG's structural bias. (Privates do appear: initiating
  // an exchange makes a private node a "successful partner" of its
  // responder.)
  EXPECT_GT(static_cast<double>(publics) / static_cast<double>(total), 0.3);
}

TEST(Arrg, MessageRoundTrip) {
  ArrgShuffleReq req;
  req.sender = pss::NodeDescriptor{3, net::NatType::Private, 0};
  req.entries = {{4, net::NatType::Public, 2}};
  wire::Writer w;
  req.encode(w);
  wire::Reader r(w.data());
  const auto back = ArrgShuffleReq::decode(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.sender, req.sender);
  EXPECT_EQ(back.entries, req.entries);
}

}  // namespace
}  // namespace croupier::baselines
