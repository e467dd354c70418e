// Statistical regression contract for fig. 6: at the paper's 1000-node
// operating point, Croupier's overlay randomness must stay within a
// pinned distance of Cyclon's — the NAT-oblivious sampler running on an
// all-public population, i.e. the best case any gossip sampler achieves.
//
// The pins are calibrated against the measured distribution at this
// exact (spec, seed) point and are deterministic by the byte-identity
// contract: they fail only when a code change moves the distribution,
// never from run-to-run noise. Measured values (seed 1, 120 s horizon,
// audit every 10 s) and the tolerance granted around each:
//
//  - in-degree chi-square z: cyclon 58.3, croupier 64.9. Absolute z
//    grows with audit length for any real sampler (structural
//    overdispersion: fixed out-degree views are not multinomial
//    sampling, and the poisson join stagger skews cumulative counts),
//    so the contract is relative: croupier within 1.25x cyclon, both
//    inside a loose [10, 100] gross-regression band. A hub-captured
//    overlay measures in the thousands.
//  - lag-1 repeat ratio: cyclon 1.11 (a fresh-enough re-sample each
//    10 s snapshot), pinned to 1 +/- 0.5. Croupier 18.3, pinned to
//    [5, 30]; a frozen overlay would sit at (n-1)/view ~ 100. Split by
//    source class it is 1.12 for public nodes and 22.6 for private
//    ones, so private views are the slow ones. The public pool's size
//    does not explain it: an expectation that draws each class from its
//    own pool moves the private figure only from 22.65 to 22.56. Nor do
//    alpha and gamma, which size the estimator's windows; those hold no
//    view entries. The cause is the 5-descriptor shuffle budget:
//    Croupier::round splits it 3 public / 2 private, and a private
//    sender's self-descriptor takes one of the 2 private slots. Under
//    proportional sizing the public view has about 2 slots, one of them
//    the shuffle target, so a private request carries itself, at most 1
//    public descriptor and at most 1 private one. A private node keeps
//    73% of its view entries from one round to the next; a public node
//    keeps 24%, and Cyclon and Gozar nodes 32-33%. With shuffle=10 the
//    ratio is 1.33. Choosing the budget is an open ROADMAP.md item
//    (Croupier's private-view mixing); these pins change only with it.
//  - public-selection bias: cyclon exactly 1 (all-public population);
//    croupier 0.927, pinned to 1 +/- 0.3 (near-unbiased class mixing).
//  - clustering (fig 6c): croupier 0.0253 vs cyclon 0.0236 — same
//    order, pinned to < 1.5x (a merge policy herding privates onto few
//    publics would multiply it).
#include <gtest/gtest.h>

#include <cstdint>

#include "metrics/randomness.hpp"
#include "runtime/spec.hpp"

namespace croupier::run {
namespace {

struct Fig6Stats {
  double chi2_z = 0.0;
  double repeat_ratio = 0.0;
  double bias_ratio = 0.0;
  double clustering = 0.0;
};

Fig6Stats measure(const char* protocol, double ratio, std::uint64_t seed) {
  Experiment experiment({.protocol = protocol, .nodes = 1000, .ratio = ratio,
                         .duration_s = 120,
                         .record = ExperimentSpec::RecordKind::Randomness,
                         .record_every_s = 10.0},
                        seed);
  experiment.run();
  Fig6Stats stats;
  const auto& series = experiment.randomness()->series();
  if (!series.empty()) {
    stats.chi2_z = series.back().chi2_z;
    stats.repeat_ratio = series.back().repeat_ratio;
    stats.bias_ratio = series.back().bias_ratio;
  }
  stats.clustering =
      experiment.world().snapshot_overlay().avg_clustering_coefficient();
  return stats;
}

TEST(Fig6Contract, CroupierMatchesCyclonRandomnessAtPaperScale) {
  const auto croupier =
      measure("croupier:alpha=25,gamma=50,sizing=proportional", 0.2, 1);
  const auto cyclon = measure("cyclon", 1.0, 1);

  // Chi-square distance (see file header for the calibration).
  EXPECT_GT(cyclon.chi2_z, 10.0);
  EXPECT_LT(cyclon.chi2_z, 100.0);
  EXPECT_GT(croupier.chi2_z, 10.0);
  EXPECT_LT(croupier.chi2_z, 100.0);
  EXPECT_LT(croupier.chi2_z, cyclon.chi2_z * 1.25)
      << "croupier z " << croupier.chi2_z << " vs cyclon z "
      << cyclon.chi2_z;

  // Temporal independence: cyclon re-draws; croupier's private views,
  // slowed by the shuffle budget, stay far from the frozen-overlay
  // ceiling (~100).
  EXPECT_NEAR(cyclon.repeat_ratio, 1.0, 0.5);
  EXPECT_GT(croupier.repeat_ratio, 5.0);
  EXPECT_LT(croupier.repeat_ratio, 30.0);

  // Class bias: cyclon's all-public population pins its ratio at
  // exactly 1; croupier's mixed views must stay near-unbiased.
  EXPECT_DOUBLE_EQ(cyclon.bias_ratio, 1.0);
  EXPECT_NEAR(croupier.bias_ratio, 1.0, 0.3);

  // Clustering ordering (fig 6c).
  EXPECT_GT(croupier.clustering, 0.0);
  EXPECT_LT(croupier.clustering, cyclon.clustering * 1.5);
}

}  // namespace
}  // namespace croupier::run
