// Sampling quality: measures the PSS contract directly.
//
// At a set of observer nodes, draws one sample per round for several
// simulated minutes and checks:
//  1. class balance — the fraction of public samples should track ω
//     (this is exactly what the ratio estimator buys Croupier);
//  2. spread — how many distinct peers a node sees over time (a random
//     walk over fresh views should keep discovering new nodes);
//  3. uniformity — a chi-squared statistic of the empirical sample
//     distribution against the uniform one.
//
// Run it twice to compare Croupier with NAT-oblivious Cyclon on the same
// 80%-private population: Cyclon's samples collapse onto public nodes.
#include <cmath>
#include <cstdio>
#include <string>

#include "common/hash_index.hpp"
#include "runtime/spec.hpp"
#include "runtime/world.hpp"

namespace {

using namespace croupier;

struct Quality {
  double public_share = 0;
  double distinct_frac = 0;
  double chi2_per_cell = 0;  // ~1.0 for a perfectly uniform sampler
  double dead_share = 0;     // samples pointing at already-dead nodes
  double nat_drop_share = 0;  // protocol packets eaten by NAT filters
};

Quality measure(const std::string& protocol, std::uint64_t seed) {
  // Continuous churn from t=30 s: stale descriptors then point at dead
  // nodes, so a sampler that fails to refresh its views hands out dead
  // peers. Both systems run the identical spec — only the protocol name
  // differs.
  run::Experiment experiment({.protocol = protocol, .nodes = 500, .ratio = 0.2,
                              .join = run::ExperimentSpec::JoinKind::Instant,
                              .churn = 0.01, .churn_at_s = 30,
                              .duration_s = 330,
                              .record = run::ExperimentSpec::RecordKind::None},
                             seed);
  run::World& world = experiment.world();
  world.simulator().run_until(sim::sec(30));

  net::NodeId observer = world.alive_ids().front();
  HashIndex<net::NodeId, std::size_t> counts;
  std::size_t total = 0;
  std::size_t public_hits = 0;
  std::size_t dead_hits = 0;

  for (int round = 0; round < 600; ++round) {
    world.simulator().run_until(world.simulator().now() + sim::msec(500));
    if (!world.alive(observer)) {  // churned away: move to a survivor
      observer = world.alive_ids().front();
      continue;
    }
    auto* sampler = world.sampler(observer);
    const auto peer = sampler->sample();
    if (!peer.has_value()) continue;
    ++counts[peer->id];
    ++total;
    if (!world.alive(peer->id)) {
      ++dead_hits;
    } else if (world.type_of(peer->id) == net::NatType::Public) {
      ++public_hits;
    }
  }

  Quality q;
  q.public_share = static_cast<double>(public_hits) /
                   static_cast<double>(total);
  q.dead_share = static_cast<double>(dead_hits) / static_cast<double>(total);
  q.distinct_frac = static_cast<double>(counts.size()) /
                    static_cast<double>(world.alive_count());
  // Chi-squared against uniform over all alive nodes, normalized by the
  // cell count so 1.0 ~ uniform.
  const double expected = static_cast<double>(total) /
                          static_cast<double>(world.alive_count());
  double chi2 = 0;
  for (net::NodeId id : world.alive_ids()) {
    const auto it = counts.find(id);
    const double observed =
        it == counts.end() ? 0.0 : static_cast<double>(it->second);
    chi2 += (observed - expected) * (observed - expected) / expected;
  }
  q.chi2_per_cell = chi2 / static_cast<double>(world.alive_count());
  const auto& drops = world.network().drops();
  q.nat_drop_share =
      static_cast<double>(drops.nat_filtered) /
      static_cast<double>(drops.nat_filtered + drops.delivered);
  return q;
}

}  // namespace

int main() {
  std::printf(
      "sampling quality at one observer, 500 nodes, omega=0.2, 600 draws,\n"
      "1%%/round churn after warm-up\n");
  std::printf("%-10s %14s %12s %16s %11s %11s\n", "system", "public-share",
              "dead-share", "distinct-peers", "chi2/cell", "nat-drops");

  const auto croupier_q = measure("croupier", /*seed=*/3);
  std::printf("%-10s %13.1f%% %11.1f%% %15.1f%% %11.2f %10.1f%%\n",
              "croupier", croupier_q.public_share * 100,
              croupier_q.dead_share * 100, croupier_q.distinct_frac * 100,
              croupier_q.chi2_per_cell, croupier_q.nat_drop_share * 100);

  const auto cyclon_q = measure("cyclon", /*seed=*/3);
  std::printf("%-10s %13.1f%% %11.1f%% %15.1f%% %11.2f %10.1f%%\n", "cyclon",
              cyclon_q.public_share * 100, cyclon_q.dead_share * 100,
              cyclon_q.distinct_frac * 100, cyclon_q.chi2_per_cell,
              cyclon_q.nat_drop_share * 100);

  std::printf(
      "\nomega = 0.2: a correct PSS hands out ~20%% public samples. Both\n"
      "systems keep sample quality comparable at this churn rate — but\n"
      "Croupier does so with zero NAT-filtered packets, while NAT-oblivious\n"
      "Cyclon burns the nat-drops share of its gossip against closed NATs\n"
      "(and partitions outright at higher private fractions; see\n"
      "bench/ablation_nat_oblivious).\n");
  return 0;
}
