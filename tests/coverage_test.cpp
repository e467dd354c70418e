// Coverage for the remaining public API surface: contract violations
// (death tests on CROUPIER_ASSERT), recorder tick cadence, churn
// resilience of each protocol, and misc accessors.
#include <gtest/gtest.h>

#include "runtime/recorder.hpp"
#include "runtime/scenario.hpp"
#include "test_util.hpp"

namespace croupier {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

TEST(Contracts, EventQueuePopOnEmptyAborts) {
  EXPECT_DEATH(
      {
        sim::EventQueue q;
        q.pop();
      },
      "pop\\(\\) on empty queue");
}

TEST(Contracts, EventQueuePeekOnEmptyAborts) {
  EXPECT_DEATH(
      {
        sim::EventQueue q;
        (void)q.next_time();
      },
      "next_time\\(\\) on empty queue");
  EXPECT_DEATH(
      {
        sim::EventQueue q;
        q.schedule(5, [] {});
        q.pop();
        (void)q.next_affinity();
      },
      "next_affinity\\(\\) on empty queue");
}

TEST(Contracts, EventQueueScheduleBeforeLastPopAborts) {
  EXPECT_DEATH(
      {
        sim::EventQueue q;
        q.schedule(10, [] {});
        q.schedule(20, [] {});
        q.pop();
        q.schedule(9, [] {});
      },
      "schedule\\(\\) before the last popped time");
}

TEST(Contracts, SchedulingIntoThePastAborts) {
  EXPECT_DEATH(
      {
        sim::Simulator s;
        s.schedule_after(sim::sec(5), [] {});
        s.run();
        s.schedule_at(sim::sec(1), [] {});
      },
      "cannot schedule into the past");
}

TEST(Contracts, DoubleAttachAborts) {
  EXPECT_DEATH(
      {
        sim::Simulator s;
        net::Network n(s, std::make_unique<net::ConstantLatency>(1),
                       sim::RngStream(1));
        struct H final : net::MessageHandler {
          void on_message(net::NodeId, const net::Message&) override {}
        } h;
        n.attach(1, net::NatConfig::open(), h);
        n.attach(1, net::NatConfig::open(), h);
      },
      "already attached");
}

TEST(Contracts, KillingDeadNodeAborts) {
  EXPECT_DEATH(
      {
        run::World world(fast_world_config(1),
                         run::make_factory<core::Croupier>());
        world.kill(12345);
      },
      "kill of dead node");
}

TEST(Simulator, RunForAdvancesRelative) {
  sim::Simulator s;
  s.run_for(sim::sec(2));
  EXPECT_EQ(s.now(), sim::sec(2));
  s.run_for(sim::sec(3));
  EXPECT_EQ(s.now(), sim::sec(5));
}

TEST(Estimator, PublicWithoutHitsFallsBackToCacheOnly) {
  core::RatioEstimator e(1, net::NatType::Public, {25, 50, 10});
  e.begin_round();  // no hits at all
  e.merge(std::vector<core::EstimateEntry>{{2, 1, 4, 0}});
  // Eq. 8 degenerates to eq. 9 when E_i is undefined.
  EXPECT_DOUBLE_EQ(e.estimate(), 0.2);
}

// Starts a 1 s recorder at 1 s and runs to 5.5 s; returns the time of
// every point recorded.
template <typename Recorder>
std::vector<double> tick_times(typename Recorder::Options opt) {
  run::World world(fast_world_config(3), run::make_factory<core::Croupier>());
  populate(world, 5, 5);
  Recorder rec(world, opt);
  rec.start(sim::sec(1));
  world.simulator().run_until(sim::msec(5500));
  std::vector<double> times;
  for (const auto& p : rec.series()) times.push_back(p.t_seconds);
  return times;
}

TEST(Recorder, SamplesOncePerTick) {
  // Every recorder kind records exactly one point per tick time, from
  // its start time on.
  const std::vector<double> once{1, 2, 3, 4, 5};
  EXPECT_EQ(tick_times<run::EstimationRecorder>({sim::sec(1), 0}), once);
  EXPECT_EQ(tick_times<run::GraphStatsRecorder>({sim::sec(1), 0}), once);
  EXPECT_EQ(tick_times<run::SampledGraphStatsRecorder>({sim::sec(1), {}}),
            once);
  EXPECT_EQ(tick_times<run::RandomnessAuditRecorder>({sim::sec(1)}), once);
}

TEST(Bootstrap, KnownTracksMembership) {
  net::BootstrapServer b;
  EXPECT_FALSE(b.known(1));
  b.add(1, net::NatType::Public);
  EXPECT_TRUE(b.known(1));
  b.remove(1);
  EXPECT_FALSE(b.known(1));
}

TEST(Network, DeliveredCounterCounts) {
  run::World world(fast_world_config(5), run::make_factory<core::Croupier>());
  populate(world, 5, 0);
  world.simulator().run_until(sim::sec(10));
  EXPECT_GT(world.network().drops().delivered, 0u);
  EXPECT_EQ(world.network().drops().loss, 0u);
}

// Churn resilience per protocol: the overlay stays connected while 1% of
// each class is replaced every round.
class ChurnResilience
    : public ::testing::TestWithParam<const char*> {
 protected:
  static run::ProtocolFactory factory(const std::string& name) {
    if (name == "croupier") return run::make_factory<core::Croupier>();
    if (name == "gozar") return run::make_factory<baselines::Gozar>();
    if (name == "nylon") return run::make_factory<baselines::Nylon>();
    return run::make_factory<core::Croupier>();
  }
};

TEST_P(ChurnResilience, OverlayStaysConnected) {
  auto cfg = fast_world_config(7);
  cfg.latency = run::World::LatencyKind::King;
  run::World world(cfg, factory(GetParam()));
  populate(world, 20, 80);
  run::ChurnProcess churn(world, 0.01, net::NatConfig::open(),
                          net::NatConfig::natted());
  churn.start(sim::sec(20));
  world.simulator().run_until(sim::sec(120));

  EXPECT_EQ(world.alive_count(), 100u);
  const auto g = world.snapshot_overlay(/*usable_only=*/true);
  // Allow a couple of just-joined stragglers outside the main cluster.
  EXPECT_GE(g.largest_component_fraction(), 0.95);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ChurnResilience,
                         ::testing::Values("croupier", "gozar", "nylon"));

TEST(LatencyParams, KingCustomParamsRespected) {
  net::KingLatencyModel::Params p;
  p.median_ms = 10.0;
  p.sigma = 0.1;
  p.jitter_fraction = 0.0;
  p.min_latency = sim::msec(1);
  p.max_latency = sim::msec(50);
  net::KingLatencyModel m(1, p);
  std::vector<double> ms;
  for (net::NodeId i = 0; i < 500; ++i) {
    ms.push_back(static_cast<double>(m.base_latency(i, i + 1000)) / 1000.0);
  }
  std::sort(ms.begin(), ms.end());
  EXPECT_NEAR(ms[ms.size() / 2], 10.0, 1.0);
}

TEST(ViewExtra, OldestTieBreaksDeterministically) {
  pss::PartialView<pss::NodeDescriptor> v(3);
  v.add_if_room({1, net::NatType::Public, 5});
  v.add_if_room({2, net::NatType::Public, 5});
  ASSERT_TRUE(v.oldest().has_value());
  EXPECT_EQ(v.oldest()->id, 1u);  // first maximal element wins
}

TEST(ViewExtra, SetCapacityGrowthKeepsEntries) {
  pss::PartialView<pss::NodeDescriptor> v(2);
  v.add_if_room({1, net::NatType::Public, 0});
  v.add_if_room({2, net::NatType::Public, 0});
  v.set_capacity(5);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_TRUE(v.add_if_room({3, net::NatType::Public, 0}));
}

}  // namespace
}  // namespace croupier
