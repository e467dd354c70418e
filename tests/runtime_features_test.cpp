// Tests for runtime extensions: application-layer message routing,
// per-class round scaling, coordinate latency wiring, and merge-policy
// configuration plumbed through the protocols.
#include <gtest/gtest.h>

#include <memory>

#include "test_util.hpp"

namespace croupier::run {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

struct AppProbe final : net::MessageHandler {
  std::vector<std::pair<net::NodeId, std::uint8_t>> seen;
  void on_message(net::NodeId from, const net::Message& msg) override {
    seen.emplace_back(from, msg.type());
  }
};

struct AppMsg final : net::Message {
  std::uint8_t tag = 0x80;
  [[nodiscard]] std::uint8_t type() const override { return tag; }
  [[nodiscard]] const char* name() const override { return "test.app"; }
  void encode(wire::Writer& w) const override { w.u8(tag); }
};

TEST(AppLayer, MessagesAbove0x80RouteToAppHandler) {
  World world(fast_world_config(1), make_factory<core::Croupier>());
  const auto a = world.spawn(net::NatConfig::open());
  const auto b = world.spawn(net::NatConfig::open());
  AppProbe probe;
  world.set_app_handler(b, &probe);

  world.network().send(a, b, std::make_shared<AppMsg>());
  world.simulator().run_until(sim::sec(1));
  ASSERT_EQ(probe.seen.size(), 1u);
  EXPECT_EQ(probe.seen[0].first, a);
  EXPECT_EQ(probe.seen[0].second, 0x80);
}

TEST(AppLayer, AppMessagesWithoutHandlerAreDropped) {
  World world(fast_world_config(2), make_factory<core::Croupier>());
  const auto a = world.spawn(net::NatConfig::open());
  const auto b = world.spawn(net::NatConfig::open());
  world.network().send(a, b, std::make_shared<AppMsg>());
  // No crash, no protocol confusion: the PSS never sees tag 0x80.
  world.simulator().run_until(sim::sec(5));
  EXPECT_TRUE(world.alive(b));
}

TEST(AppLayer, ProtocolTrafficNotDeliveredToApp) {
  World world(fast_world_config(3), make_factory<core::Croupier>());
  populate(world, 4, 4);
  AppProbe probe;
  for (net::NodeId id : world.alive_ids()) {
    world.set_app_handler(id, &probe);
  }
  world.simulator().run_until(sim::sec(10));
  EXPECT_TRUE(probe.seen.empty());  // shuffles kept to the PSS layer
}

TEST(AppLayer, HandlerRemovable) {
  World world(fast_world_config(4), make_factory<core::Croupier>());
  const auto a = world.spawn(net::NatConfig::open());
  const auto b = world.spawn(net::NatConfig::open());
  AppProbe probe;
  world.set_app_handler(b, &probe);
  world.set_app_handler(b, nullptr);
  world.network().send(a, b, std::make_shared<AppMsg>());
  world.simulator().run_until(sim::sec(1));
  EXPECT_TRUE(probe.seen.empty());
}

TEST(RoundScaling, PrivateRoundScaleSlowsPrivatesOnly) {
  auto cfg = fast_world_config(5);
  cfg.private_round_scale = 2.0;  // privates gossip at half rate
  World world(cfg, make_factory<core::Croupier>());
  const auto pub = world.spawn(net::NatConfig::open());
  const auto priv = world.spawn(net::NatConfig::natted());
  world.simulator().run_until(sim::sec(60));
  EXPECT_NEAR(static_cast<double>(world.rounds_of(pub)), 60.0, 2.0);
  EXPECT_NEAR(static_cast<double>(world.rounds_of(priv)), 30.0, 2.0);
}

TEST(RoundScaling, BiasedRoundsBiasTheEstimate) {
  // The quantitative version is bench/ablation_skew; here just the sign:
  // slower privates => estimate above the true ratio.
  auto cfg = fast_world_config(6);
  cfg.private_round_scale = 1.5;
  World world(cfg, make_factory<core::Croupier>());
  populate(world, 10, 40);
  world.simulator().run_until(sim::sec(90));
  double sum = 0;
  const auto est = world.ratio_estimates();
  ASSERT_FALSE(est.empty());
  for (double e : est) sum += e;
  EXPECT_GT(sum / static_cast<double>(est.size()), world.true_ratio() + 0.02);
}

TEST(Latency, CoordinateModelWorksEndToEnd) {
  auto cfg = fast_world_config(7);
  cfg.latency = World::LatencyKind::Coordinate;
  World world(cfg, make_factory<core::Croupier>());
  populate(world, 5, 15);
  world.simulator().run_until(sim::sec(30));
  EXPECT_FALSE(world.ratio_estimates().empty());
  EXPECT_EQ(world.snapshot_overlay().largest_component(), 20u);
}

TEST(MergePolicy, HealerCroupierStillConverges) {
  core::CroupierConfig ccfg;
  ccfg.base.view_size = 5;
  ccfg.base.shuffle_size = 3;
  ccfg.base.merge = pss::MergePolicy::Healer;
  World world(fast_world_config(8), make_factory<core::Croupier>(ccfg));
  populate(world, 8, 32);
  world.simulator().run_until(sim::sec(60));
  for (double e : world.ratio_estimates()) {
    EXPECT_NEAR(e, 0.2, 0.12);
  }
}

TEST(MergePolicy, HealerCyclonKeepsViewsFresh) {
  pss::PssConfig cfg;
  cfg.view_size = 5;
  cfg.shuffle_size = 3;
  cfg.merge = pss::MergePolicy::Healer;
  World world(fast_world_config(9), make_factory<baselines::Cyclon>(cfg));
  populate(world, 20, 0);
  world.simulator().run_until(sim::sec(30));
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    const auto& c = dynamic_cast<const baselines::Cyclon&>(p);
    for (const auto& d : c.view().entries()) {
      EXPECT_LT(d.age, 15u);  // healer keeps entries notably fresh
    }
  });
}

}  // namespace
}  // namespace croupier::run
