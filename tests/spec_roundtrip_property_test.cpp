// Randomized property test for the spec text format: for hundreds of
// seeded random specs drawn across every scenario family,
// parse(to_string(s)) must reproduce s exactly (field-for-field, via the
// defaulted operator==), to_string must be a fixed point, and validate()
// must agree with the generator's constraints. The spec string is the
// experiment's durable identity (CSV headers, BENCH provenance, lab
// --spec=...), so any asymmetry here silently forks provenance from
// reality.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/spec.hpp"
#include "sim/rng.hpp"

namespace croupier {
namespace {

using run::ExperimentSpec;

/// Uniform double in [lo, hi). fmt_double escalates precision until the
/// text parses back bit-exact, so arbitrary doubles are fair game — the
/// generator does not need to stay on a printable grid.
double uniform(sim::RngStream& rng, double lo, double hi) {
  return lo + rng.next_double() * (hi - lo);
}

ExperimentSpec random_spec(sim::RngStream& rng) {
  ExperimentSpec s;

  static const std::vector<std::string> kProtocols = {
      "croupier", "croupier:alpha=25,gamma=50", "cyclon",
      "gozar",    "nylon",                      "arrg"};
  s.protocol = kProtocols[rng.index(kProtocols.size())];
  s.nodes = 1 + rng.index(5000);
  s.ratio = rng.chance(0.1) ? (rng.chance(0.5) ? 0.0 : 1.0)
                            : uniform(rng, 0.0, 1.0);

  switch (rng.index(3)) {
    case 0: s.join = ExperimentSpec::JoinKind::Poisson; break;
    case 1: s.join = ExperimentSpec::JoinKind::Fixed; break;
    default: s.join = ExperimentSpec::JoinKind::Instant; break;
  }
  if (rng.chance(0.5)) {
    s.join_public_ms = uniform(rng, 0.1, 200.0);
    s.join_private_ms = uniform(rng, 0.1, 200.0);
  }

  if (rng.chance(0.3)) {
    s.step_publics = rng.index(50);
    s.step_privates = rng.index(50);
    s.step_at_s = uniform(rng, 0.0, 100.0);
    s.step_every_ms = uniform(rng, 1.0, 100.0);
  }
  if (rng.chance(0.3)) {
    s.flash_publics = rng.index(100);
    s.flash_privates = rng.index(100);
    s.flash_at_s = uniform(rng, 0.0, 100.0);
    s.flash_over_s = uniform(rng, 0.5, 30.0);
  }
  if (rng.chance(0.3)) {
    s.churn = uniform(rng, 0.0, 0.99);
    s.churn_at_s = uniform(rng, 0.0, 100.0);
  }
  if (rng.chance(0.3)) {
    s.catastrophe = uniform(rng, 0.0, 1.0);
    s.catastrophe_at_s = uniform(rng, 0.0, 100.0);
  }
  if (rng.chance(0.3)) {
    s.failure_frac = uniform(rng, 0.0, 1.0);
    s.failure_at_s = uniform(rng, 0.0, 100.0);
    switch (rng.index(4)) {
      case 0: s.failure_corr = ExperimentSpec::FailureCorr::Uniform; break;
      case 1: s.failure_corr = ExperimentSpec::FailureCorr::Region; break;
      case 2: s.failure_corr = ExperimentSpec::FailureCorr::Public; break;
      default: s.failure_corr = ExperimentSpec::FailureCorr::Private; break;
    }
  }
  if (rng.chance(0.3)) {
    s.eclipse_target = rng.index(s.nodes + 1);  // 0 = off
    s.eclipse_at_s = uniform(rng, 0.0, 100.0);
    s.eclipse_period_s = uniform(rng, 0.1, 20.0);
  }
  if (rng.chance(0.3) && s.ratio < 1.0) {
    s.natflap_frac = uniform(rng, 0.0, 1.0);
    s.natflap_at_s = uniform(rng, 0.0, 100.0);
    s.natflap_period_s = uniform(rng, 0.1, 30.0);
  }
  if (rng.chance(0.2) && s.nodes > 1) {
    s.adversary_hubs = 1 + rng.index(std::min<std::size_t>(s.nodes - 1, 4));
  }

  if (rng.chance(0.4)) {
    if (rng.chance(0.5)) {
      s.loss = ExperimentSpec::LossSpec(uniform(rng, 0.0, 0.99));
    } else {
      s.loss.pub_pub = uniform(rng, 0.0, 0.99);
      s.loss.pub_priv = uniform(rng, 0.0, 0.99);
      s.loss.priv_pub = uniform(rng, 0.0, 0.99);
      s.loss.priv_priv = uniform(rng, 0.0, 0.99);
      s.loss.after_s = uniform(rng, 0.0, 100.0);
    }
  }

  if (rng.chance(0.4)) {
    s.mtu = 21 + rng.index(2000);
    if (rng.chance(0.5)) s.fec_repair = rng.index(5);
    if (rng.chance(0.3)) s.fec_rate = uniform(rng, 0.0, 2.0);
  }
  if (rng.chance(0.3)) {
    s.bandwidth_bps = 1000 + rng.index(1000000);
    if (rng.chance(0.5)) s.bandwidth_burst = 100 + rng.index(100000);
  }

  if (rng.chance(0.3)) s.skew = uniform(rng, 0.0, 0.5);
  if (rng.chance(0.3)) s.private_round_scale = uniform(rng, 0.1, 4.0);
  switch (rng.index(3)) {
    case 0: s.latency = run::World::LatencyKind::King; break;
    case 1: s.latency = run::World::LatencyKind::Constant; break;
    default: s.latency = run::World::LatencyKind::Coordinate; break;
  }
  if (rng.chance(0.3)) s.latency_ms = uniform(rng, 0.1, 500.0);
  if (rng.chance(0.3)) s.round_ms = uniform(rng, 10.0, 5000.0);
  s.natid = rng.chance(0.2);

  switch (rng.index(5)) {
    case 0: s.record = ExperimentSpec::RecordKind::None; break;
    case 1: s.record = ExperimentSpec::RecordKind::Estimation; break;
    case 2: s.record = ExperimentSpec::RecordKind::Graph; break;
    case 3: s.record = ExperimentSpec::RecordKind::GraphSampled; break;
    default: s.record = ExperimentSpec::RecordKind::Randomness; break;
  }
  if (rng.chance(0.3)) s.record_every_s = uniform(rng, 0.0, 60.0);
  s.duration_s = uniform(rng, 1.0, 500.0);
  return s;
}

/// Folds one canonical string, newline-terminated, into an FNV-1a digest.
std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (const char c : text + '\n') {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(SpecRoundtripProperty, ParseOfToStringIsIdentity) {
  sim::RngStream rng(0xD1CE);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 500; ++i) {
    const ExperimentSpec s = random_spec(rng);
    ASSERT_NO_THROW(s.validate()) << "iteration " << i << ": generator "
                                  << "produced an invalid spec\n"
                                  << s.to_string();
    const std::string text = s.to_string();
    ExperimentSpec back;
    ASSERT_NO_THROW(back = ExperimentSpec::parse(text))
        << "iteration " << i << ": " << text;
    EXPECT_EQ(back, s) << "iteration " << i << ": parse(to_string) diverged\n"
                       << "  emitted:  " << text << "\n"
                       << "  reparsed: " << back.to_string();
    // Fixed point: re-emitting the reparsed spec changes nothing.
    EXPECT_EQ(back.to_string(), text) << "iteration " << i;
    digest = fnv1a(digest, text);
  }
  // The canonical bytes themselves are pinned, not just the round trip:
  // specs are provenance (CSV headers, lab output), so a printer change
  // that still round-trips must show up here.
  EXPECT_EQ(digest, 0xe1a39dff1bc2fe8cULL) << std::hex << digest;
}

TEST(SpecRoundtripProperty, DefaultSpecRoundTrips) {
  const ExperimentSpec s;
  EXPECT_EQ(ExperimentSpec::parse(s.to_string()), s);
}

TEST(SpecRoundtripProperty, ValidateRejectsOutOfRangeMutations) {
  // One deliberate violation per constraint family — validate() must
  // throw for each, and parse() (which validates) must agree.
  const auto expect_invalid = [](ExperimentSpec s, const char* what) {
    EXPECT_THROW(s.validate(), std::invalid_argument) << what;
    EXPECT_THROW((void)ExperimentSpec::parse(s.to_string()),
                 std::invalid_argument)
        << what;
  };
  ExperimentSpec s;
  s.loss.pub_pub = 1.0;
  expect_invalid(s, "loss rate of 1.0");
  s = ExperimentSpec{};
  s.mtu = 10;
  expect_invalid(s, "mtu smaller than the fragment header");
  s = ExperimentSpec{};
  s.fec_repair = 2;  // fec without mtu
  expect_invalid(s, "fec without fragmentation");
  s = ExperimentSpec{};
  s.bandwidth_burst = 1000;  // burst without rate
  expect_invalid(s, "bandwidth burst without a rate");
  s = ExperimentSpec{};
  s.ratio = 1.0;
  s.natflap_frac = 0.5;
  expect_invalid(s, "natflap on an all-public population");
  s = ExperimentSpec{};
  s.eclipse_target = s.nodes + 1;
  expect_invalid(s, "eclipse target beyond the population");
  s = ExperimentSpec{};
  s.protocol = "no-such-protocol";
  expect_invalid(s, "unknown protocol");

  // Specs that validate() once accepted but whose runs aborted in an
  // assert or never finished: times rounding to 0 us, skew outside
  // World's [0, 0.5), a horizon past the time ceiling, and rounds that
  // can be shorter than 1 us.
  const ExperimentSpec base = [] {
    ExperimentSpec b;
    b.nodes = 10;
    b.duration_s = 5;
    return b;
  }();
  s = base;
  s.round_ms = 0.0004;
  expect_invalid(s, "round-ms=0.0004");
  s = base;
  s.join_public_ms = 1e-9;
  expect_invalid(s, "join-public-ms=1e-9");
  s = base;
  s.step_publics = 3;
  s.step_every_ms = 1e-9;
  expect_invalid(s, "step-publics=3 step-every-ms=1e-9");
  s = base;
  s.duration_s = 15;
  s.flash_at_s = 1;
  s.flash_publics = 3;
  s.flash_over_s = 1e-9;
  expect_invalid(s, "flash=at:1,publics:3,over:1e-9");
  s = base;
  s.duration_s = 70;
  s.eclipse_target = 3;
  s.eclipse_period_s = 1e-9;
  expect_invalid(s, "eclipse=target:3,period:1e-9");
  s = base;
  s.duration_s = 15;
  s.natflap_frac = 0.5;
  s.natflap_at_s = 1;
  s.natflap_period_s = 1e-9;
  expect_invalid(s, "natflap=frac:0.5,at:1,period:1e-9");
  s = base;
  s.record_every_s = 1e-9;
  expect_invalid(s, "record-every=1e-9");
  s = base;
  s.skew = 0.7;
  expect_invalid(s, "skew=0.7");
  s = base;
  s.duration_s = 1e300;
  expect_invalid(s, "duration=1e300");
  s = base;
  s.join = ExperimentSpec::JoinKind::Instant;
  s.duration_s = 1;
  s.private_round_scale = 1e-12;
  s.record_every_s = 0.1;
  expect_invalid(s, "private-round-scale=1e-12");
  s = base;
  s.join = ExperimentSpec::JoinKind::Instant;
  s.duration_s = 0.01;
  s.round_ms = 0.001;
  s.skew = 0.4;
  s.record_every_s = 0.001;
  expect_invalid(s, "round-ms=0.001 skew=0.4");
  // Without skew that 1 us round is exactly long enough.
  s.skew = 0.0;
  EXPECT_NO_THROW(s.validate());
}

}  // namespace
}  // namespace croupier
