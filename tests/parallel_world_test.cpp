// The round-synchronous parallel engine's contract: byte-identical
// results to the sequential engine, for every worker count, on every
// workload shape the specs can express.
//
// These suites run the same seeded experiment under world_jobs = 1
// (sequential engine), 2 and 4 (parallel engine) and require exact
// (bitwise) equality of everything observable: recorder series, drop
// counters, traffic totals, event counts and the surviving population.
// Any divergence — a missed defer(), a non-deterministic merge order, a
// latency model undercutting its min_latency() — fails loudly here
// before it can corrupt a figure.
//
// Registered with the `thread` ctest label so CI's ThreadSanitizer job
// also runs the executor's worker handoff under TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/spec.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel_executor.hpp"
#include "sim/simulator.hpp"

namespace croupier {
namespace {

using run::ExperimentSpec;

TEST(EventQueueAffinity, DefaultsToSerialAndPreservesFifoTieOrder) {
  sim::EventQueue q;
  std::vector<int> fired;
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(10, sim::Affinity{7}, [&] { fired.push_back(2); });
  q.schedule(5, sim::Affinity{3}, [&] { fired.push_back(3); });

  EXPECT_EQ(q.next_time(), 5u);
  EXPECT_EQ(q.next_affinity(), 3u);
  auto first = q.pop();
  EXPECT_EQ(first.affinity, 3u);
  first.fn();

  // Equal timestamps fire in scheduling order regardless of affinity.
  EXPECT_EQ(q.next_affinity(), sim::kSerialAffinity);
  q.pop().fn();
  EXPECT_EQ(q.next_affinity(), 7u);
  q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{3, 1, 2}));
}

TEST(SimulatorDefer, RunsImmediatelyOutsideParallelBatches) {
  sim::Simulator sim;
  bool ran = false;
  sim.defer([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ShardOf, IsAPureFunctionOfAffinityAndJobs) {
  for (sim::Affinity a : {1u, 2u, 17u, 5000u}) {
    EXPECT_EQ(sim::shard_of(a, 4), sim::shard_of(a, 4));
    EXPECT_LT(sim::shard_of(a, 4), 4u);
    EXPECT_EQ(sim::shard_of(a, 1), 0u);
  }
}

TEST(ParallelExecutorEngine, SameTimestampEventsMergeInScheduleOrder) {
  // Node-affine events sharing one timestamp go through the full
  // shard/merge machinery; their deferred effects must replay in
  // scheduling order whatever the worker count.
  for (std::size_t jobs : {1u, 4u}) {
    sim::Simulator sim;
    std::vector<int> effects;
    for (int i = 0; i < 8; ++i) {
      sim.schedule_at(100, static_cast<sim::Affinity>(i + 1),
                      [&sim, &effects, i] {
                        sim.defer([&effects, i] { effects.push_back(i); });
                      });
    }
    const sim::ParallelExecutor engine(sim, {jobs, sim::msec(1)});
    sim.run_until(200);
    EXPECT_EQ(effects, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}))
        << "jobs=" << jobs;
    EXPECT_EQ(sim.events_processed(), 8u);
    EXPECT_EQ(sim.now(), 200u);
  }
}

/// Everything observable about one finished experiment, for exact
/// cross-engine comparison.
struct RunFingerprint {
  std::vector<double> series;  // flattened recorder output
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t nat_filtered = 0;
  std::uint64_t dead_receiver = 0;
  std::size_t alive = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t fragments_sent = 0;
  std::uint64_t fragments_lost = 0;
  std::uint64_t fragments_reassembled = 0;
  std::uint64_t fragments_expired = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t replaced = 0;      // eclipse respawns
  std::uint64_t reclassified = 0;  // natflap class flips

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_spec(const ExperimentSpec& spec, std::uint64_t seed,
                        std::size_t world_jobs) {
  run::Experiment experiment(spec, seed, world_jobs);
  experiment.run();
  RunFingerprint fp;
  if (experiment.estimation() != nullptr) {
    for (const auto& p : experiment.estimation()->series()) {
      fp.series.push_back(p.t_seconds);
      fp.series.push_back(p.sample.avg_error);
      fp.series.push_back(p.sample.max_error);
      fp.series.push_back(p.sample.truth);
      fp.series.push_back(static_cast<double>(p.sample.node_count));
    }
  }
  if (experiment.graph_stats() != nullptr) {
    for (const auto& p : experiment.graph_stats()->series()) {
      fp.series.push_back(p.t_seconds);
      fp.series.push_back(p.avg_path_length);
      fp.series.push_back(p.clustering_coefficient);
      fp.series.push_back(p.unreachable_fraction);
      fp.series.push_back(static_cast<double>(p.edges));
    }
  }
  if (experiment.randomness() != nullptr) {
    for (const auto& p : experiment.randomness()->series()) {
      fp.series.push_back(p.t_seconds);
      fp.series.push_back(p.chi2);
      fp.series.push_back(p.chi2_z);
      fp.series.push_back(p.repeat_ratio);
      fp.series.push_back(p.bias_ratio);
      fp.series.push_back(static_cast<double>(p.nodes));
      fp.series.push_back(static_cast<double>(p.edges_observed));
    }
  }
  const auto scenario = experiment.scenario_stats();
  fp.replaced = scenario.replaced;
  fp.reclassified = scenario.reclassified;
  run::World& world = experiment.world();
  fp.events = world.simulator().events_processed();
  const auto& drops = world.network().drops();
  fp.delivered = drops.delivered;
  fp.lost = drops.loss;
  fp.nat_filtered = drops.nat_filtered;
  fp.dead_receiver = drops.dead_receiver;
  fp.fragments_sent = drops.fragments_sent;
  fp.fragments_lost = drops.fragments_lost;
  fp.fragments_reassembled = drops.fragments_reassembled;
  fp.fragments_expired = drops.fragments_expired;
  fp.delivered_bytes = drops.delivered_bytes;
  fp.alive = world.alive_count();
  fp.bytes_total = world.network().meter().sum().bytes_total();
  return fp;
}

void expect_engine_equivalence(const ExperimentSpec& spec,
                               std::uint64_t seed) {
  const RunFingerprint sequential = run_spec(spec, seed, 1);
  ASSERT_FALSE(sequential.series.empty());
  for (std::size_t jobs : {2u, 4u}) {
    const RunFingerprint parallel = run_spec(spec, seed, jobs);
    // Element-wise first so a mismatch reports where, then the full
    // fingerprint for the counters.
    ASSERT_EQ(sequential.series.size(), parallel.series.size())
        << "world_jobs=" << jobs;
    for (std::size_t i = 0; i < sequential.series.size(); ++i) {
      ASSERT_EQ(sequential.series[i], parallel.series[i])
          << "world_jobs=" << jobs << " series index " << i;
    }
    EXPECT_TRUE(sequential == parallel) << "world_jobs=" << jobs;
  }
}

TEST(ParallelWorldDeterminism, CroupierPoissonJoins500Nodes) {
  // The ISSUE's acceptance shape: a 500-node croupier run, world-jobs 1
  // vs 4 byte-identical.
  const ExperimentSpec spec{.protocol = "croupier:alpha=25,gamma=50",
                            .nodes = 500, .ratio = 0.2, .duration_s = 60};
  expect_engine_equivalence(spec, 42);
}

TEST(ParallelWorldDeterminism, ChurnAndLoss) {
  const ExperimentSpec spec{.protocol = "croupier", .nodes = 300, .ratio = 0.2,
                            .churn = 0.02, .churn_at_s = 20.0, .loss = 0.05,
                            .duration_s = 50};
  expect_engine_equivalence(spec, 7);
}

TEST(ParallelWorldDeterminism, NatIdProtocolStaysSerialized) {
  // NAT-ID handlers mutate the shared bootstrap registry; the delivery
  // affinity policy must pin them to the serial path.
  const ExperimentSpec spec{.protocol = "croupier", .nodes = 200, .ratio = 0.3,
                            .natid = true, .duration_s = 40};
  expect_engine_equivalence(spec, 11);
}

TEST(ParallelWorldDeterminism, NatIdUnderChurn) {
  // Regression: a joiner churned out while its NAT-ID test was in flight
  // used to abort the responder (it asked the Network for the departed
  // client's public address).
  const auto spec = ExperimentSpec::parse(
      "protocol=croupier nodes=100 join=instant natid=1 churn=0.05 "
      "churn-at=5 duration=30");
  expect_engine_equivalence(spec, 1);
}

TEST(ParallelWorldDeterminism, CatastropheUnderGozar) {
  // Cross-protocol + mass kill mid-run (fig. 7b shape); graph recording
  // exercises the other recorder path.
  const ExperimentSpec spec{.protocol = "gozar", .nodes = 300, .ratio = 0.2,
                            .catastrophe = 0.5, .catastrophe_at_s = 25.0,
                            .duration_s = 50,
                            .record = ExperimentSpec::RecordKind::Graph,
                            .record_every_s = 10.0};
  expect_engine_equivalence(spec, 3);
}

TEST(ParallelWorldDeterminism, FlashCrowdSurge) {
  // A join surge ramping up and down mid-run: a long train of
  // serial-affinity spawn events interleaved with node-affine gossip —
  // the barrier-heavy shape for the batch former.
  const ExperimentSpec spec{.protocol = "croupier:alpha=25,gamma=50",
                            .nodes = 200, .ratio = 0.2, .flash_publics = 80,
                            .flash_privates = 20, .flash_at_s = 20.0,
                            .flash_over_s = 8.0, .duration_s = 45};
  expect_engine_equivalence(spec, 13);
}

TEST(ParallelWorldDeterminism, RegionCorrelatedFailure) {
  // A latency-correlated cohort kill: one serial event that reads the
  // latency model and the scenario RNG, then mass-detaches — everything
  // after it must replay identically.
  const ExperimentSpec spec{.protocol = "croupier", .nodes = 250, .ratio = 0.2,
                            .failure_frac = 0.4, .failure_at_s = 20.0,
                            .failure_corr = ExperimentSpec::FailureCorr::Region,
                            .duration_s = 40};
  expect_engine_equivalence(spec, 23);
}

TEST(ParallelWorldDeterminism, StructuredTimeVaryingLoss) {
  // Per-class-pair loss switching on mid-run: the loss die starts
  // rolling (and consuming network RNG) only for some packets from
  // t=15 s — the draw pattern must stay identical across engines.
  ExperimentSpec::LossSpec loss;
  loss.pub_pub = 0.05;
  loss.priv_pub = 0.3;
  loss.priv_priv = 0.3;
  loss.after_s = 15.0;
  const ExperimentSpec spec{.protocol = "croupier", .nodes = 250, .ratio = 0.2,
                            .loss = loss, .duration_s = 40};
  expect_engine_equivalence(spec, 29);
}

TEST(ParallelWorldDeterminism, FragmentedShufflesReassembleIdentically) {
  // mtu=64 forces every croupier shuffle through the fragmenter (k = 2):
  // per-receiver reassembly maps mutate inline under node affinity and
  // each message adds a GC event — both must replay identically.
  const ExperimentSpec spec{.protocol = "croupier:alpha=25,gamma=50",
                            .nodes = 300, .ratio = 0.2, .mtu = 64,
                            .duration_s = 50};
  expect_engine_equivalence(spec, 31);
}

TEST(ParallelWorldDeterminism, FecUnderFragmentLossDrawsIdentically) {
  // Per-fragment loss multiplies the network RNG draw count and the FEC
  // decoder exercises the GF(256) elimination on partial arrivals; the
  // draw pattern and reassembly outcomes must not depend on the engine.
  const ExperimentSpec spec{.protocol = "croupier", .nodes = 250, .ratio = 0.2,
                            .loss = 0.1, .mtu = 64, .fec_repair = 2,
                            .duration_s = 45};
  expect_engine_equivalence(spec, 37);
}

TEST(ParallelWorldDeterminism, BandwidthCapDelaysIdentically) {
  // Token buckets are charged from the serial halves in timestamp order;
  // the queueing delay they add to every datagram must be identical
  // whatever the worker count, or delivery times (and therefore every
  // downstream shuffle) diverge.
  const ExperimentSpec spec{.protocol = "croupier", .nodes = 200, .ratio = 0.2,
                            .mtu = 128, .bandwidth_bps = 20000,
                            .bandwidth_burst = 4000, .duration_s = 40};
  expect_engine_equivalence(spec, 41);
}

TEST(ParallelWorldDeterminism, ZeroMinLatencyDegeneratesToSameTimestamp) {
  // A constant latency that rounds to 0 us gives min_latency() == 0: the
  // lookahead clamps to 1 us and every batch is same-timestamp only.
  // Zero-delay deliveries then land at the batch's own timestamp — at,
  // not after, the causal floor — and must form the next batch instead
  // of tripping the floor assert (regression: the floor was once the
  // window end, which this workload violates by construction).
  const ExperimentSpec spec{.protocol = "croupier", .nodes = 200, .ratio = 0.2,
                            .join = ExperimentSpec::JoinKind::Instant,
                            .skew = 0.0,  // all rounds share timestamps
                            .latency = run::World::LatencyKind::Constant,
                            .latency_ms = 0.0004, .duration_s = 20};
  expect_engine_equivalence(spec, 19);
}

// The lookahead must not exceed any delay a batched event schedules a
// node-affine event with. Each spec below undercuts the 50 ms / 30 ms /
// 4 s constant latency with a different timer: a 20 ms round, a private
// round scaled to 10 ms, and the 3 s reassembly timeout.
TEST(ParallelWorldDeterminism, RoundShorterThanLatency) {
  expect_engine_equivalence(
      ExperimentSpec::parse(
          "protocol=croupier nodes=200 join=instant latency=constant "
          "latency-ms=50 round-ms=20 duration=5"),
      61);
}

TEST(ParallelWorldDeterminism, PrivateRoundShorterThanLatency) {
  expect_engine_equivalence(
      ExperimentSpec::parse(
          "protocol=croupier nodes=300 ratio=0.3 join=instant "
          "private-round-scale=0.01 latency=constant latency-ms=30 "
          "duration=5"),
      67);
}

TEST(ParallelWorldDeterminism, ReassemblyTimeoutShorterThanLatency) {
  expect_engine_equivalence(
      ExperimentSpec::parse(
          "protocol=croupier nodes=1000 join=instant latency=constant "
          "latency-ms=4000 round-ms=5000 mtu=64 duration=60 "
          "record-every=5"),
      71);
}

TEST(ParallelWorldDeterminism, ConstantLatencyMaximalBatches) {
  // Constant latency gives the widest causal windows (lookahead = the
  // full latency), the stress case for batch formation.
  const ExperimentSpec spec{.protocol = "cyclon", .nodes = 300, .ratio = 0.2,
                            .latency = run::World::LatencyKind::Constant,
                            .latency_ms = 50.0, .duration_s = 40};
  expect_engine_equivalence(spec, 5);
}

TEST(ParallelWorldDeterminism, EclipseRespawnsIdentically) {
  // The eclipse tick is one serial event that snapshots the target's
  // view, mass-kills and respawns — every respawned node's RNG lineage
  // and first-round schedule must replay identically, and the audit
  // recorder folds the resulting in-degree skew into the fingerprint.
  const ExperimentSpec spec{.protocol = "croupier:alpha=25,gamma=50",
                            .nodes = 250, .ratio = 0.2, .eclipse_target = 1,
                            .eclipse_at_s = 15.0, .eclipse_period_s = 2.0,
                            .duration_s = 40,
                            .record = ExperimentSpec::RecordKind::Randomness,
                            .record_every_s = 10.0};
  expect_engine_equivalence(spec, 43);
}

TEST(ParallelWorldDeterminism, NatFlapReclassifiesIdentically) {
  // NAT flapping tears protocols down and rebuilds them in place with
  // epoch-tagged RNG forks; pending round events of the old epoch must
  // no-op identically under every engine, and nylon's punch chains are
  // the workload most entangled with the flipped classes.
  const ExperimentSpec spec{.protocol = "nylon", .nodes = 200, .ratio = 0.2,
                            .natflap_frac = 0.1, .natflap_at_s = 15.0,
                            .natflap_period_s = 5.0, .duration_s = 40,
                            .record = ExperimentSpec::RecordKind::Randomness,
                            .record_every_s = 10.0};
  expect_engine_equivalence(spec, 47);
}

TEST(ParallelWorldDeterminism, HubAdversaryUnderGozar) {
  // Hub shims answer shuffles and hijack relays from inside the normal
  // delivery path (node-affine events); their poisoned responses must
  // interleave identically with honest traffic.
  const ExperimentSpec spec{.protocol = "gozar", .nodes = 250, .ratio = 0.2,
                            .adversary_hubs = 2, .duration_s = 40,
                            .record = ExperimentSpec::RecordKind::Randomness,
                            .record_every_s = 10.0};
  expect_engine_equivalence(spec, 53);
}

TEST(ParallelWorldEngine, ReportsBatchingStats) {
  const ExperimentSpec spec{.protocol = "croupier", .nodes = 300, .ratio = 0.2,
                            .duration_s = 30};
  run::Experiment experiment(spec, 1, /*world_jobs=*/4);
  EXPECT_NE(experiment.world().engine_stats(), nullptr);
  experiment.run();
  const auto* stats = experiment.world().engine_stats();
  ASSERT_NE(stats, nullptr);
  // Steady-state gossip must actually form multi-event batches, or the
  // engine silently degenerated to serial execution.
  EXPECT_GT(stats->batches, 0u);
  EXPECT_GT(stats->batched_events, stats->batches);
  EXPECT_GE(stats->max_batch, 2u);

  run::Experiment sequential(spec, 1, /*world_jobs=*/1);
  EXPECT_EQ(sequential.world().engine_stats(), nullptr);
}

TEST(ParallelWorldEngine, SimulatorRunUntilUsesTheWorldsExecutor) {
  // world_jobs is a property of the World, not of one entry point:
  // driving its simulator directly must batch too.
  const ExperimentSpec spec{.protocol = "croupier", .nodes = 300, .ratio = 0.2,
                            .duration_s = 30};
  run::Experiment experiment(spec, 1, /*world_jobs=*/4);
  experiment.world().simulator().run_until(sim::sec(30));
  const auto* stats = experiment.world().engine_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->batches, 0u);
}

}  // namespace
}  // namespace croupier
