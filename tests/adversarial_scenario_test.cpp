// The adversarial membership processes: eclipse (targeted neighbour
// replacement), NAT flapping (in-place class oscillation through
// World::reclassify) and the self-promoting hub shim — their attack
// effects and their restore semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "runtime/adversary.hpp"
#include "runtime/scenario.hpp"
#include "runtime/spec.hpp"
#include "test_util.hpp"

namespace croupier::run {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

/// Cumulative in-degree per node over the final overlay snapshot.
std::map<net::NodeId, std::size_t> indegree_snapshot(World& world) {
  std::map<net::NodeId, std::size_t> indegree;
  for (const net::NodeId id : world.sorted_ids()) {
    const auto* sampler = world.sampler(id);
    if (sampler == nullptr) continue;
    for (const net::NodeId target : sampler->out_neighbors()) {
      if (target != id) ++indegree[target];
    }
  }
  return indegree;
}

TEST(Eclipse, StarvesTheTargetOfHonestLinks) {
  Experiment experiment({.protocol = "croupier:alpha=25,gamma=50", .nodes = 100,
                         .ratio = 0.2,
                         .join = ExperimentSpec::JoinKind::Instant,
                         .eclipse_target = 1, .eclipse_at_s = 10.0,
                         .eclipse_period_s = 1.0, .duration_s = 40,
                         .record = ExperimentSpec::RecordKind::None},
                        7);
  experiment.run();
  // Every period the target's neighbours were crashed and replaced in
  // kind: the population size is preserved while the replacement count
  // grows with the attack duration.
  World& world = experiment.world();
  EXPECT_EQ(world.alive_count(), 100u);
  EXPECT_GT(experiment.scenario_stats().replaced, 50u);

  // Isolation: everything the target points at is killed within one
  // period of entering its view, so the target's entire out-view is
  // dead links — it cannot route a single shuffle to a live peer.
  const auto* target = world.sampler(1);
  ASSERT_NE(target, nullptr);
  std::size_t out = 0;
  std::size_t live = 0;
  for (const net::NodeId id : target->out_neighbors()) {
    ++out;
    if (world.alive(id)) ++live;
  }
  EXPECT_GE(out, 10u);  // the view stayed full of (dead) entries
  EXPECT_EQ(live, 0u) << live << " of " << out << " out-links alive";
}

TEST(Eclipse, DeadTargetTicksAreInert) {
  World world(fast_world_config(11), make_factory<core::Croupier>());
  populate(world, 10, 10);
  EclipseProcess eclipse(world, 3, sim::sec(1));
  world.simulator().run_until(sim::sec(8));

  // A dead target makes every tick a deterministic no-op.
  world.kill(3);
  eclipse.start(sim::sec(10));
  world.simulator().run_until(sim::sec(13));
  EXPECT_EQ(eclipse.stats().replaced, 0u);
  EXPECT_EQ(world.alive_count(), 19u);
}

TEST(NatFlap, RoundTripsClassStateIdempotently) {
  World world(fast_world_config(13), make_factory<core::Croupier>());
  populate(world, 5, 5);
  std::map<net::NodeId, net::NatType> original;
  for (const net::NodeId id : world.alive_ids()) {
    original[id] = world.type_of(id);
  }

  NatFlapProcess flap(world, 0.5, sim::sec(2));
  flap.start(sim::sec(1));
  // t=1: out phase — floor(0.5 * 10) nodes flip class.
  world.simulator().run_until(sim::sec(2));
  EXPECT_EQ(flap.stats().reclassified, 5u);
  EXPECT_EQ(flap.currently_flapped(), 5u);
  std::size_t flipped = 0;
  for (const auto& [id, type] : original) {
    if (world.type_of(id) != type) ++flipped;
  }
  EXPECT_EQ(flipped, 5u);

  // t=3: back phase — every survivor returns to its original class.
  world.simulator().run_until(sim::sec(4));
  EXPECT_EQ(flap.stats().reclassified, 10u);
  EXPECT_EQ(flap.currently_flapped(), 0u);
  for (const auto& [id, type] : original) {
    EXPECT_EQ(world.type_of(id), type) << "node " << id;
  }

  // The world keeps gossiping across the oscillation: reclassified
  // nodes rebuilt their protocol through the normal join path.
  world.simulator().run_until(sim::sec(10));
  EXPECT_EQ(world.alive_count(), 10u);
  EXPECT_EQ(world.gossiping_count(), 10u);
}

/// The hub's in-degree against the mean in-degree of the honest public
/// nodes — the right null hypothesis, because publics are structurally
/// high in-degree under croupier (every private's public view points at
/// them by design), so a global mean would misread that structure as
/// amplification.
double hub_indegree_vs_public_mean(Experiment& experiment) {
  World& world = experiment.world();
  net::NodeId hub_id = 0;
  for (const net::NodeId id : world.sorted_ids()) {
    if (dynamic_cast<HubSampler*>(world.sampler(id)) != nullptr) hub_id = id;
  }
  EXPECT_NE(hub_id, 0u);
  const auto indegree = indegree_snapshot(world);
  double hub = 0.0;
  double honest_sum = 0.0;
  double honest_n = 0.0;
  for (const auto& [id, count] : indegree) {
    if (id == hub_id) {
      hub = static_cast<double>(count);
    } else if (world.alive(id) &&
               world.type_of(id) == net::NatType::Public) {
      honest_sum += static_cast<double>(count);
      honest_n += 1.0;
    }
  }
  return honest_n > 0.0 && honest_sum > 0.0 ? hub / (honest_sum / honest_n)
                                            : 0.0;
}

double run_hub_ratio(const char* protocol, std::uint64_t seed) {
  Experiment experiment({.protocol = protocol, .nodes = 100, .ratio = 0.2,
                         .join = ExperimentSpec::JoinKind::Instant,
                         .adversary_hubs = 1, .duration_s = 60,
                         .record = ExperimentSpec::RecordKind::None},
                        seed);
  experiment.run();
  return hub_indegree_vs_public_mean(experiment);
}

TEST(HubAdversary, InflatesItsInDegreeUnderGozarButNotCroupier) {
  // Gozar hands the hub a relay position: hijacked relayed requests let
  // it inject {self} into private nodes' views it never met, tripling
  // its in-degree against the honest-public baseline (measured 3.4x).
  // Croupier gives it no such channel — privates drop requests, so the
  // hub's promotion only reaches the public fifth, and its in-degree
  // stays within a factor ~1.5 of what any honest public already gets
  // structurally (measured 1.46x, below the honest maximum's ratio).
  const double gozar = run_hub_ratio("gozar", 5);
  const double croupier = run_hub_ratio("croupier:alpha=25,gamma=50", 5);
  EXPECT_GT(gozar, 2.5) << "gozar hub/public-mean " << gozar;
  EXPECT_LT(croupier, 2.0) << "croupier hub/public-mean " << croupier;
  EXPECT_GT(gozar, croupier);
}

TEST(HubAdversary, CountsPoisonedExchangesAndHijackedRelays) {
  Experiment experiment({.protocol = "gozar", .nodes = 100, .ratio = 0.2,
                         .join = ExperimentSpec::JoinKind::Instant,
                         .adversary_hubs = 1, .duration_s = 60,
                         .record = ExperimentSpec::RecordKind::None},
                        9);
  experiment.run();
  World& world = experiment.world();
  const HubSampler* hub = nullptr;
  for (const net::NodeId id : world.sorted_ids()) {
    if (const auto* h = dynamic_cast<HubSampler*>(world.sampler(id))) {
      ASSERT_EQ(hub, nullptr) << "one hub requested, several found";
      hub = h;
    }
  }
  ASSERT_NE(hub, nullptr);
  // The hub answered honest shuffles with poisoned views, and relayed
  // requests routed through it were hijacked rather than forwarded.
  EXPECT_GT(hub->poisoned_exchanges(), 10u);
  EXPECT_GT(hub->hijacked_relays(), 0u);
}

}  // namespace
}  // namespace croupier::run
