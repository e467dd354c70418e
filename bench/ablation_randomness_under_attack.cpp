// Ablation: sampler randomness under adversarial membership dynamics.
//
// Fig. 6 certifies randomness in the honest case; this ablation re-runs
// the audit (in-degree chi-square z, lag-1 repeat ratio, public-selection
// bias) with each of the three adversarial processes switched on, for all
// five protocols:
//
//  - eclipse=target:0     every node the target points at is crashed and
//                         replaced each period — a sampler whose links
//                         are uniformly re-drawn shrugs this off, one
//                         that relies on sticky neighbours starves;
//  - natflap=frac:0.2     a fifth of the population flips NAT class each
//                         period and flips back the next. Gozar parents
//                         and Nylon rendezvous chains are bound to the
//                         flapped nodes' old class; Croupier privates
//                         depend only on whichever publics are live;
//  - adversary=hubs:3     three public joiners run the self-promoting
//                         hub shim: answer every shuffle with
//                         {self}, inject promotion requests, hijack
//                         Gozar relays. Chi-square z explodes for
//                         samplers that merge unsolicited entries into
//                         long-lived views.
//
// Expected shape: all five near the honest baseline when honest;
// gozar/nylon audit statistics separate sharply under at least one
// adversary (relay/RVP state is the attack surface), croupier stays
// within honest bounds (privates never accept requests, and the hub has
// no relay position to hijack).
#include "bench_common.hpp"

namespace {

using namespace croupier;

struct TrialResult {
  std::vector<metrics::RandomnessPoint> series;
  run::ScenarioProcess::Stats stats;
};

TrialResult measure(const run::ExperimentSpec& spec, std::uint64_t seed,
                    std::size_t world_jobs) {
  run::Experiment experiment(spec, seed, world_jobs);
  experiment.run();
  return {experiment.randomness()->series(), experiment.scenario_stats()};
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 200 : 500;
  const double duration = args.fast ? 80 : 150;
  const double attack_at = duration * 0.3;

  const char* protocols[] = {
      "croupier:alpha=25,gamma=50,sizing=proportional", "cyclon", "gozar",
      "nylon", "arrg"};
  const char* proto_names[] = {"croupier", "cyclon", "gozar", "nylon",
                               "arrg"};
  enum Scenario { kHonest, kEclipse, kNatFlap, kHubs, kScenarios };
  const char* scenario_names[] = {"honest", "eclipse", "natflap", "hubs"};

  const std::size_t n_protocols = std::size(protocols);
  const std::size_t points = n_protocols * kScenarios;

  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "ablation randomness-under-attack: %zu nodes, 20%% public, attack "
      "at %.0fs, %zu run(s)",
      n, attack_at, args.runs));
  sink.blank();

  const auto grid = bench::run_trial_grid(
      args, points, [&](std::size_t p, std::uint64_t seed) {
        const std::size_t proto = p / kScenarios;
        const auto scenario = static_cast<Scenario>(p % kScenarios);
        run::ExperimentSpec spec{
            .protocol = protocols[proto], .nodes = n, .duration_s = duration,
            .record = run::ExperimentSpec::RecordKind::Randomness,
            .record_every_s = 10};
        switch (scenario) {
          case kHonest:
            break;
          case kEclipse:
            // Node 1 is the first joiner — public under every join
            // process, so each protocol's strongest position.
            spec.eclipse_target = 1;
            spec.eclipse_at_s = attack_at;
            spec.eclipse_period_s = 2.0;
            break;
          case kNatFlap:
            spec.natflap_frac = 0.2;
            spec.natflap_at_s = attack_at;
            spec.natflap_period_s = 10.0;
            break;
          case kHubs:
          case kScenarios:
            spec.adversary_hubs = 3;
            break;
        }
        return measure(spec, seed, args.world_jobs);
      });

  // Final audit statistics averaged over runs, honest column kept for
  // the differential section below.
  std::vector<double> final_z(points, 0.0);
  std::vector<double> final_repeat(points, 0.0);
  std::vector<double> final_bias(points, 0.0);
  for (std::size_t p = 0; p < points; ++p) {
    exp::Accum z;
    exp::Accum rep;
    exp::Accum bias;
    for (const auto& trial : grid[p]) {
      if (trial.series.empty()) continue;
      const auto& last = trial.series.back();
      z.add(last.chi2_z);
      rep.add(last.repeat_ratio);
      bias.add(last.bias_ratio);
    }
    final_z[p] = z.mean();
    final_repeat[p] = rep.mean();
    final_bias[p] = bias.mean();

    const std::size_t proto = p / kScenarios;
    const char* scenario = scenario_names[p % kScenarios];
    const std::string label =
        exp::strf("%s %s", proto_names[proto], scenario);

    // Time series from the last run (one representative trajectory).
    const auto& series = grid[p].back().series;
    std::vector<double> t;
    std::vector<double> zs;
    for (const auto& pt : series) {
      t.push_back(pt.t_seconds);
      zs.push_back(pt.chi2_z);
    }
    sink.series(exp::strf("chi2-z %s", label.c_str()), t, zs, "%.0f",
                "%.4f");

    const auto& stats = grid[p].back().stats;
    const std::string block = exp::strf("summary %s", label.c_str());
    sink.comment(exp::strf(
        "%s: final chi2-z=%.3f repeat-ratio=%.4f bias-ratio=%.4f "
        "replaced=%llu reclassified=%llu",
        block.c_str(), final_z[p], final_repeat[p], final_bias[p],
        static_cast<unsigned long long>(stats.replaced),
        static_cast<unsigned long long>(stats.reclassified)));
    sink.blank();
    sink.value(block, "final chi2-z", final_z[p]);
    sink.value(block, "final repeat-ratio", final_repeat[p]);
    sink.value(block, "final bias-ratio", final_bias[p]);
  }

  // The differential the ablation exists for: attacked minus honest,
  // per protocol per adversary. A sampler whose randomness survives the
  // attack shows deltas near zero; a captured one shows chi2-z blowing
  // up (hub amplification) or repeat-ratio rising (frozen views).
  for (std::size_t proto = 0; proto < n_protocols; ++proto) {
    const std::size_t honest = proto * kScenarios + kHonest;
    const std::string block =
        exp::strf("differential %s", proto_names[proto]);
    for (std::size_t s = kEclipse; s < kScenarios; ++s) {
      const std::size_t p = proto * kScenarios + s;
      sink.value(block, exp::strf("%s chi2-z delta", scenario_names[s]),
                 final_z[p] - final_z[honest]);
      sink.value(block,
                 exp::strf("%s repeat-ratio delta", scenario_names[s]),
                 final_repeat[p] - final_repeat[honest]);
    }
    sink.comment(exp::strf(
        "%s: eclipse dz=%.3f natflap dz=%.3f hubs dz=%.3f", block.c_str(),
        final_z[proto * kScenarios + kEclipse] - final_z[honest],
        final_z[proto * kScenarios + kNatFlap] - final_z[honest],
        final_z[proto * kScenarios + kHubs] - final_z[honest]));
  }
  sink.blank();
  return 0;
}
