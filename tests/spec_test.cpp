// ExperimentSpec / Experiment: the declarative experiment surface.
// Specs are written as values (designated initializers) or parsed from
// text. Covers the parse/to_string round-trip, validation, population
// arithmetic, and the load-bearing equivalence guarantee: a spec-built
// Experiment replays a hand-built World event for event (identical
// recorded series at the same seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "runtime/recorder.hpp"
#include "runtime/registry.hpp"
#include "runtime/scenario.hpp"
#include "runtime/spec.hpp"

namespace croupier::run {
namespace {

using Corr = ExperimentSpec::FailureCorr;
using Join = ExperimentSpec::JoinKind;
using Record = ExperimentSpec::RecordKind;

TEST(ExperimentSpec, DefaultsRoundTripMinimally) {
  const ExperimentSpec spec;
  EXPECT_EQ(spec.to_string(),
            "protocol=croupier nodes=1000 ratio=0.2 duration=200");
  EXPECT_EQ(ExperimentSpec::parse(spec.to_string()), spec);
}

TEST(ExperimentSpec, FullyLoadedSpecRoundTrips) {
  const ExperimentSpec spec{
      .protocol = "croupier:alpha=10,gamma=25,merge=healer", .nodes = 1234,
      .ratio = 0.33, .join = Join::Fixed, .join_public_ms = 42.5,
      .join_private_ms = 13, .step_publics = 333, .step_privates = 7,
      .step_at_s = 58, .step_every_ms = 42, .churn = 0.025, .churn_at_s = 61,
      .catastrophe = 0.8, .catastrophe_at_s = 60, .loss = 0.05, .skew = 0.1,
      .private_round_scale = 1.2, .latency = World::LatencyKind::Constant,
      .latency_ms = 20, .round_ms = 500, .natid = true, .duration_s = 123.456,
      .record = Record::Graph, .record_every_s = 2.5};
  const auto text = spec.to_string();
  EXPECT_EQ(ExperimentSpec::parse(text), spec) << text;
  // And the canonical form is stable (parse -> to_string is idempotent).
  EXPECT_EQ(ExperimentSpec::parse(text).to_string(), text);
}

TEST(ExperimentSpec, ParseRejectsUnknownKeysAndBadValues) {
  EXPECT_THROW((void)ExperimentSpec::parse("bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("nodes"), std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("nodes=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("ratio=1.5"),
               std::invalid_argument);  // validate() runs after parsing
  EXPECT_THROW((void)ExperimentSpec::parse("join=sometimes"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("record=everything"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("natid=maybe"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("protocol=chorder:x"),
               std::invalid_argument);  // bad option syntax caught early
  // An unknown protocol name or option must fail at validation time, not
  // later inside a trial thread where the throw would abort the run.
  EXPECT_THROW((void)ExperimentSpec::parse("protocol=chord"),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpec{.protocol = "croupier:aplha=25"}.validate(),
               std::invalid_argument);
}

// Regression (PR 5): the Network hard-asserts every loss rate < 1.0, but
// validate() used to accept loss=1.0 — a lab spec could crash a trial
// worker mid-run instead of failing fast at parse time.
TEST(ExperimentSpec, LossRateOneIsRejectedAtValidateTime) {
  EXPECT_THROW((void)ExperimentSpec::parse("loss=1.0"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("loss=1"), std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("loss=priv-any:1.0"),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpec{.loss = 1.0}.validate(), std::invalid_argument);
  EXPECT_NO_THROW((void)ExperimentSpec::parse("loss=0.999"));
}

TEST(ExperimentSpec, StructuredLossParsesAndRoundTrips) {
  const auto spec =
      ExperimentSpec::parse("loss=pub-pub:0.1,priv-any:0.4,after:90");
  EXPECT_EQ(spec.loss.pub_pub, 0.1);
  EXPECT_EQ(spec.loss.pub_priv, 0.0);
  EXPECT_EQ(spec.loss.priv_pub, 0.4);
  EXPECT_EQ(spec.loss.priv_priv, 0.4);
  EXPECT_EQ(spec.loss.after_s, 90.0);
  EXPECT_FALSE(spec.loss.is_uniform());
  // Canonical form: explicit pairs, zero pairs omitted, fixed order.
  EXPECT_EQ(ExperimentSpec::parse(spec.to_string()), spec)
      << spec.to_string();
  EXPECT_NE(spec.to_string().find(
                "loss=pub-pub:0.1,priv-pub:0.4,priv-priv:0.4,after:90"),
            std::string::npos);

  // A bare rate inside the comma list is the uniform shorthand.
  const auto delayed = ExperimentSpec::parse("loss=0.2,after:50");
  EXPECT_EQ(delayed.loss.pub_pub, 0.2);
  EXPECT_EQ(delayed.loss.priv_priv, 0.2);
  EXPECT_EQ(delayed.loss.after_s, 50.0);
  EXPECT_EQ(ExperimentSpec::parse(delayed.to_string()), delayed);

  // The scalar form stays byte-identical to the historic field.
  const auto uniform = ExperimentSpec::parse("loss=0.05");
  EXPECT_TRUE(uniform.loss.is_uniform());
  EXPECT_NE(uniform.to_string().find("loss=0.05"), std::string::npos);
  EXPECT_EQ(uniform.to_string().find("pub-pub"), std::string::npos);
}

TEST(ExperimentSpec, StructuredLossRejectsMalformedValues) {
  EXPECT_THROW((void)ExperimentSpec::parse("loss=pub:0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("loss=pub-pub:"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("loss=pub-pub:abc"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("loss=0.1,,after:3"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("loss=after:-5"),
               std::invalid_argument);
}

TEST(ExperimentSpec, FlashCrowdParsesValidatesAndRoundTrips) {
  const auto spec = ExperimentSpec::parse(
      "flash=at:120,publics:500,privates:125,over:10 duration=200");
  EXPECT_EQ(spec.flash_publics, 500u);
  EXPECT_EQ(spec.flash_privates, 125u);
  EXPECT_EQ(spec.flash_at_s, 120.0);
  EXPECT_EQ(spec.flash_over_s, 10.0);
  EXPECT_EQ(ExperimentSpec::parse(spec.to_string()), spec)
      << spec.to_string();

  EXPECT_THROW((void)ExperimentSpec::parse("flash=publics:10,over:0"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("flash=bogus:1"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("flash=publics:ten"),
               std::invalid_argument);
}

TEST(ExperimentSpec, CorrelatedFailureParsesValidatesAndRoundTrips) {
  const auto spec =
      ExperimentSpec::parse("failure=at:60,frac:0.3,corr:private");
  EXPECT_EQ(spec.failure_frac, 0.3);
  EXPECT_EQ(spec.failure_at_s, 60.0);
  EXPECT_EQ(spec.failure_corr, ExperimentSpec::FailureCorr::Private);
  EXPECT_EQ(ExperimentSpec::parse(spec.to_string()), spec)
      << spec.to_string();

  // Subkeys are optional: corr defaults to region, at to 60.
  const auto minimal = ExperimentSpec::parse("failure=frac:0.5");
  EXPECT_EQ(minimal.failure_corr, ExperimentSpec::FailureCorr::Region);
  EXPECT_EQ(minimal.failure_at_s, 60.0);
  EXPECT_EQ(ExperimentSpec::parse(minimal.to_string()), minimal);

  EXPECT_THROW((void)ExperimentSpec::parse("failure=frac:1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("failure=corr:sideways"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("failure=when:5"),
               std::invalid_argument);
}

TEST(ExperimentSpec, NewScenarioFamiliesRoundTripFullyLoaded) {
  ExperimentSpec::LossSpec loss;
  loss.pub_pub = 0.01;
  loss.priv_pub = 0.3;
  loss.priv_priv = 0.25;
  loss.after_s = 42.5;
  const ExperimentSpec spec{.protocol = "croupier", .nodes = 800, .ratio = 0.25,
                            .flash_publics = 200, .flash_privates = 50,
                            .flash_at_s = 33.5, .flash_over_s = 7.25,
                            .failure_frac = 0.4, .failure_at_s = 90,
                            .failure_corr = Corr::Public, .loss = loss,
                            .duration_s = 150};
  const auto text = spec.to_string();
  EXPECT_EQ(ExperimentSpec::parse(text), spec) << text;
  EXPECT_EQ(ExperimentSpec::parse(text).to_string(), text);
}

TEST(ExperimentSpec, AdversarialFamiliesParseValidateAndRoundTrip) {
  const ExperimentSpec spec{.protocol = "gozar", .nodes = 400, .ratio = 0.2,
                            .eclipse_target = 7, .eclipse_at_s = 33.5,
                            .eclipse_period_s = 2.5, .natflap_frac = 0.15,
                            .natflap_at_s = 40.0, .natflap_period_s = 12.5,
                            .adversary_hubs = 3, .duration_s = 120,
                            .record = Record::Randomness, .record_every_s = 5};
  const auto text = spec.to_string();
  EXPECT_EQ(ExperimentSpec::parse(text), spec) << text;
  EXPECT_EQ(ExperimentSpec::parse(text).to_string(), text);

  // Scalar shorthands: the bare value names the family's primary knob.
  EXPECT_EQ(ExperimentSpec::parse("eclipse=5").eclipse_target, 5u);
  EXPECT_DOUBLE_EQ(ExperimentSpec::parse("natflap=0.1").natflap_frac, 0.1);
  EXPECT_EQ(ExperimentSpec::parse("adversary=2").adversary_hubs, 2u);
  EXPECT_EQ(ExperimentSpec::parse("record=randomness").record,
            ExperimentSpec::RecordKind::Randomness);
  EXPECT_THROW((void)ExperimentSpec::parse("eclipse=when:5"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("adversary=count:3"),
               std::invalid_argument);
}

TEST(ExperimentSpec, AdversarialBoundsAreRejectedAtValidateTime) {
  // An eclipse target the join processes never spawn (ids are assigned
  // 1..nodes) would silently no-op forever.
  EXPECT_THROW((ExperimentSpec{.nodes = 100, .eclipse_target = 101}.validate()),
               std::invalid_argument);
  EXPECT_NO_THROW(
      (ExperimentSpec{.nodes = 100, .eclipse_target = 100}.validate()));
  EXPECT_THROW((ExperimentSpec{.eclipse_target = 1, .eclipse_at_s = 10.0,
                               .eclipse_period_s = 0.0}
                    .validate()),
               std::invalid_argument);
  // NAT flapping needs a NAT class to flap.
  EXPECT_THROW((ExperimentSpec{.ratio = 1.0, .natflap_frac = 0.1}.validate()),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpec{.natflap_frac = 1.5}.validate(),
               std::invalid_argument);
  EXPECT_THROW((ExperimentSpec{.natflap_frac = 0.1, .natflap_at_s = 10.0,
                               .natflap_period_s = 0.0}
                    .validate()),
               std::invalid_argument);
  // At least one honest node must remain to audit.
  EXPECT_THROW((ExperimentSpec{.nodes = 10, .adversary_hubs = 10}.validate()),
               std::invalid_argument);
  EXPECT_NO_THROW(
      (ExperimentSpec{.nodes = 10, .adversary_hubs = 9}.validate()));
}

TEST(ExperimentSpec, ValidateRejectsOutOfRangeFields) {
  EXPECT_THROW(ExperimentSpec{.nodes = 0}.validate(), std::invalid_argument);
  EXPECT_THROW(ExperimentSpec{.ratio = -0.1}.validate(),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpec{.churn = 1.0}.validate(),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpec{.loss = 2.0}.validate(), std::invalid_argument);
  EXPECT_THROW(ExperimentSpec{.duration_s = 0.0}.validate(),
               std::invalid_argument);
  EXPECT_THROW((ExperimentSpec{.join_public_ms = 0.0, .join_private_ms = 13}
                    .validate()),
               std::invalid_argument);
  EXPECT_NO_THROW(ExperimentSpec{}.validate());
}

TEST(ExperimentSpec, PacketFamiliesParseAndRoundTrip) {
  // Scalar shorthands.
  const auto scalar = ExperimentSpec::parse(
      "protocol=croupier mtu=512 bandwidth=20000 fec=2 duration=100");
  EXPECT_EQ(scalar.mtu, 512u);
  EXPECT_EQ(scalar.bandwidth_bps, 20000u);
  EXPECT_EQ(scalar.bandwidth_burst, 0u);
  EXPECT_EQ(scalar.fec_repair, 2u);
  EXPECT_EQ(scalar.fec_rate, 0.0);
  EXPECT_EQ(ExperimentSpec::parse(scalar.to_string()), scalar);

  // Composite forms.
  const auto full = ExperimentSpec::parse(
      "protocol=croupier mtu=256 bandwidth=rate:10000,burst:40000 "
      "fec=repair:1,rate:0.25 duration=100");
  EXPECT_EQ(full.bandwidth_bps, 10000u);
  EXPECT_EQ(full.bandwidth_burst, 40000u);
  EXPECT_EQ(full.fec_repair, 1u);
  EXPECT_EQ(full.fec_rate, 0.25);
  EXPECT_EQ(ExperimentSpec::parse(full.to_string()), full);

  // Rate-only fec round-trips without a repair subkey.
  const auto rate_only = ExperimentSpec::parse(
      "protocol=croupier mtu=256 fec=rate:0.5 duration=100");
  EXPECT_EQ(rate_only.fec_repair, 0u);
  EXPECT_EQ(rate_only.fec_rate, 0.5);
  EXPECT_EQ(ExperimentSpec::parse(rate_only.to_string()), rate_only);

  // Defaults stay omitted: the packet keys add zero bytes to pre-packet
  // specs (the mtu=0 compatibility contract).
  EXPECT_EQ(ExperimentSpec().to_string(),
            "protocol=croupier nodes=1000 ratio=0.2 duration=200");

  // The value form names the same fields the grammar sets.
  const ExperimentSpec value{.mtu = 256, .bandwidth_bps = 10000,
                             .bandwidth_burst = 40000, .fec_repair = 1,
                             .fec_rate = 0.25, .duration_s = 100};
  EXPECT_EQ(value, full);
  EXPECT_EQ(full.mtu, 256u);
}

TEST(ExperimentSpec, PacketValidationRejectsBadGeometry) {
  // mtu must exceed the 20-byte fragment header.
  EXPECT_THROW(ExperimentSpec{.mtu = 20}.validate(), std::invalid_argument);
  EXPECT_THROW(ExperimentSpec{.mtu = 12}.validate(), std::invalid_argument);
  EXPECT_THROW(ExperimentSpec{.mtu = 70000}.validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(ExperimentSpec{.mtu = 21}.validate());
  EXPECT_NO_THROW(ExperimentSpec{.mtu = 0}.validate());  // off

  // Zero-rate buckets: a burst without a rate would never drain.
  EXPECT_THROW((ExperimentSpec{.bandwidth_bps = 0, .bandwidth_burst = 1000}
                    .validate()),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("bandwidth=0"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("bandwidth=burst:1000"),
               std::invalid_argument);

  // FEC without fragmentation has nothing to repair.
  EXPECT_THROW(ExperimentSpec{.fec_repair = 2}.validate(),
               std::invalid_argument);
  EXPECT_THROW((ExperimentSpec{.mtu = 256, .fec_rate = -0.5}.validate()),
               std::invalid_argument);
  EXPECT_NO_THROW((ExperimentSpec{.mtu = 256, .fec_repair = 2}.validate()));

  // Malformed values and unknown subkeys fail loudly.
  EXPECT_THROW((void)ExperimentSpec::parse("mtu=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("bandwidth=rate:1,depth:9"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("fec=repair:1,q:2"),
               std::invalid_argument);
}

TEST(ExperimentSpec, PopulationArithmeticMatchesHistoricBenches) {
  // The benches historically used n/5-style integer division; the spec's
  // round-half-up must agree at every paper operating point.
  const auto publics = [](std::size_t nodes, double ratio) {
    ExperimentSpec s;
    s.nodes = nodes;
    s.ratio = ratio;
    return s.publics();
  };
  EXPECT_EQ(publics(5000, 0.2), 1000u);
  EXPECT_EQ(publics(1000, 0.2), 200u);
  EXPECT_EQ(publics(300, 0.2), 60u);
  EXPECT_EQ(publics(50, 0.2), 10u);
  EXPECT_EQ(publics(1000, 0.33), 330u);
  EXPECT_EQ(publics(1000, 0.05), 50u);
  EXPECT_EQ(publics(300, 1.0), 300u);
  EXPECT_EQ(publics(300, 0.0), 0u);

  ExperimentSpec s;
  s.nodes = 500;
  s.ratio = 0.2;
  EXPECT_EQ(s.privates(), 400u);
}

TEST(ExperimentSpec, DurationIsExactForSubMillisecondHorizons) {
  ExperimentSpec s;
  s.duration_s = 60.001;  // fig7b: measure 1 ms after the crash
  EXPECT_EQ(s.duration(), sim::sec(60) + sim::msec(1));
}

// The load-bearing guarantee behind the bench migration: the spec-built
// world replays the hand-built one event for event, so the recorded
// series match bit for bit.
TEST(Experiment, ReproducesHandBuiltWorldBitForBit) {
  const std::uint64_t seed = 4242;
  const auto duration = sim::sec(20);

  // Hand-built, exactly as the pre-registry fig benches did it.
  metrics::ErrorSeries manual;
  {
    core::CroupierConfig cfg;
    cfg.estimator.local_history = 10;
    cfg.estimator.neighbour_history = 25;
    World::Config wcfg;
    wcfg.seed = seed;
    wcfg.latency = World::LatencyKind::King;
    wcfg.clock_skew = 0.01;
    World world(wcfg, make_factory<core::Croupier>(cfg));
    const auto publics =
        JoinProcess::poisson(world, 10, net::NatConfig::open(), sim::msec(50));
    const auto privates = JoinProcess::poisson(
        world, 40, net::NatConfig::natted(), sim::msec(13));
    publics->start(0);
    privates->start(0);
    EstimationRecorder recorder(world, {sim::sec(1), 2});
    recorder.start(sim::sec(1));
    world.simulator().run_until(duration);
    manual = recorder.series();
  }

  // Declarative.
  Experiment experiment({.protocol = "croupier:alpha=10,gamma=25", .nodes = 50,
                         .ratio = 0.2, .duration_s = 20,
                         .record = Record::Estimation},
                        seed);
  experiment.run();
  const auto& spec_series = experiment.estimation()->series();

  ASSERT_EQ(spec_series.size(), manual.size());
  ASSERT_FALSE(manual.empty());
  for (std::size_t i = 0; i < manual.size(); ++i) {
    EXPECT_EQ(spec_series[i].t_seconds, manual[i].t_seconds);
    EXPECT_EQ(spec_series[i].sample.avg_error, manual[i].sample.avg_error);
    EXPECT_EQ(spec_series[i].sample.max_error, manual[i].sample.max_error);
    EXPECT_EQ(spec_series[i].sample.truth, manual[i].sample.truth);
  }
}

TEST(Experiment, ChurnReplacesNodesAndKeepsPopulation) {
  Experiment experiment({.protocol = "croupier", .nodes = 60, .ratio = 0.2,
                         .join = Join::Instant, .churn = 0.05, .churn_at_s = 5,
                         .duration_s = 30, .record = Record::None},
                        7);
  experiment.run();
  EXPECT_EQ(experiment.world().alive_count(), 60u);
  // 5%/round for ~25 rounds must have replaced a noticeable share: the
  // maximum live node id keeps growing as fresh nodes join.
  net::NodeId max_id = 0;
  for (const auto id : experiment.world().alive_ids()) {
    max_id = std::max(max_id, id);
  }
  EXPECT_GT(max_id, 80u);
}

TEST(Experiment, CatastropheKillsTheRequestedFraction) {
  Experiment experiment({.protocol = "croupier", .nodes = 100, .ratio = 0.2,
                         .join = Join::Instant, .catastrophe = 0.6,
                         .catastrophe_at_s = 10, .duration_s = 10.001,
                         .record = Record::None},
                        3);
  experiment.run();
  EXPECT_EQ(experiment.world().alive_count(), 40u);
}

TEST(Experiment, CorrelatedFailureKillsTheRequestedFraction) {
  Experiment experiment({.protocol = "croupier", .nodes = 100, .ratio = 0.2,
                         .join = Join::Instant, .failure_frac = 0.6,
                         .failure_at_s = 10, .failure_corr = Corr::Region,
                         .duration_s = 10.001, .record = Record::None},
                        3);
  experiment.run();
  EXPECT_EQ(experiment.world().alive_count(), 40u);
  EXPECT_EQ(experiment.scenario_stats().killed, 60u);
}

TEST(Experiment, ClassBiasedFailureSparesTheOtherClassUntilExhausted) {
  // 20 publics / 80 privates; a private-biased kill of 40% (40 nodes)
  // fits inside the private class, so every public survives.
  Experiment spare({.protocol = "croupier", .nodes = 100, .ratio = 0.2,
                    .join = Join::Instant, .failure_frac = 0.4,
                    .failure_at_s = 10, .failure_corr = Corr::Private,
                    .duration_s = 10.001, .record = Record::None},
                   7);
  spare.run();
  EXPECT_EQ(spare.world().alive_count(), 60u);
  EXPECT_EQ(spare.world().count(net::NatType::Public), 20u);

  // A public-biased kill of 40% (40 nodes) exhausts the 20 publics and
  // spills the remaining quota into the privates.
  Experiment spill({.protocol = "croupier", .nodes = 100, .ratio = 0.2,
                    .join = Join::Instant, .failure_frac = 0.4,
                    .failure_at_s = 10, .failure_corr = Corr::Public,
                    .duration_s = 10.001, .record = Record::None},
                   7);
  spill.run();
  EXPECT_EQ(spill.world().alive_count(), 60u);
  EXPECT_EQ(spill.world().count(net::NatType::Public), 0u);
}

TEST(Experiment, GraphRecordingProducesSeries) {
  Experiment experiment({.protocol = "cyclon", .nodes = 40, .ratio = 1.0,
                         .join = Join::Instant, .duration_s = 21,
                         .record = Record::Graph, .record_every_s = 5},
                        11);
  experiment.run();
  ASSERT_NE(experiment.graph_stats(), nullptr);
  EXPECT_EQ(experiment.estimation(), nullptr);
  ASSERT_GE(experiment.graph_stats()->series().size(), 4u);
  EXPECT_GT(experiment.graph_stats()->series().back().avg_path_length, 0.0);
}

TEST(ExperimentSpec, GraphSampledRoundTrips) {
  const ExperimentSpec spec{.protocol = "cyclon", .nodes = 500,
                            .record = Record::GraphSampled,
                            .record_every_s = 7.5};
  const auto text = spec.to_string();
  EXPECT_NE(text.find("record=graph-sampled"), std::string::npos) << text;
  EXPECT_EQ(ExperimentSpec::parse(text), spec) << text;
  EXPECT_EQ(ExperimentSpec::parse(text).to_string(), text);
  EXPECT_EQ(ExperimentSpec::parse("record=graph-sampled").record,
            ExperimentSpec::RecordKind::GraphSampled);
}

TEST(Experiment, GraphSampledRecordingProducesSeries) {
  Experiment experiment({.protocol = "cyclon", .nodes = 40, .ratio = 1.0,
                         .join = Join::Instant, .duration_s = 21,
                         .record = Record::GraphSampled, .record_every_s = 5},
                        11);
  experiment.run();
  ASSERT_NE(experiment.graph_sampled(), nullptr);
  EXPECT_EQ(experiment.graph_stats(), nullptr);
  EXPECT_EQ(experiment.estimation(), nullptr);
  ASSERT_GE(experiment.graph_sampled()->series().size(), 4u);
  const auto& last = experiment.graph_sampled()->series().back();
  EXPECT_GT(last.avg_path_length, 0.0);
  EXPECT_EQ(last.population, 40u);
  EXPECT_GT(last.largest_component_fraction, 0.9);
}

}  // namespace
}  // namespace croupier::run
