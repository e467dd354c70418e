// Ablation: correlated failure vs the paper's uniform catastrophe.
//
// Fig. 7b kills a uniformly random fraction of all nodes at one instant.
// Real outages are rarely uniform: a datacenter region goes dark (a
// contiguous latency neighbourhood), or the population behind one kind
// of middlebox drops (a NAT-class cohort — e.g. a carrier-grade NAT
// operator failing takes out private nodes only). PeerSwap
// (arXiv:2408.03829) argues peer-sampler randomness claims are most
// fragile exactly under such correlated membership dynamics.
//
// This sweep crashes 30..70% of a warmed-up overlay as four cohort
// shapes (uniform / latency region / public-biased / private-biased),
// for Croupier and for relay-dependent Gozar, and reports right after
// the crash:
//   - the biggest usable cluster among survivors (fig. 7b's notion), and
//   - the surviving public ratio ω (how badly the cohort shape skews the
//     public/private mix the estimator must re-learn).
//
// Expected shape: Croupier holds a dominant cluster under every cohort
// (initiative lies with the private nodes themselves, so even a
// public-biased kill only shocks ω — visible in the second table —
// without partitioning survivors). Gozar's private nodes are reachable
// only through cached relay parents, so a public-biased kill (which
// wipes the relay pool) collapses its usable connectivity outright,
// while region and private-biased kills stay close to the uniform
// baseline.
#include <iterator>
#include <string>

#include "bench_common.hpp"

namespace {

using namespace croupier;

struct TrialResult {
  double cluster = 0.0;
  double survivor_ratio = 0.0;
};

TrialResult run_failure(const run::ExperimentSpec& spec, std::uint64_t seed,
                        std::size_t world_jobs) {
  run::Experiment experiment(spec, seed, world_jobs);
  // The spec crashes the cohort at t=60 s and the horizon stops 1 ms
  // later: survivors are measured before any healing rounds.
  experiment.run();
  TrialResult res;
  res.cluster = experiment.world()
                    .snapshot_overlay(/*usable_only=*/true)
                    .largest_component_fraction();
  res.survivor_ratio = experiment.world().true_ratio();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 300 : 1000;  // 80% private, as fig7b
  const int fail_levels[] = {30, 50, 70};

  struct Mode {
    const char* name;
    run::ExperimentSpec::FailureCorr corr;
  };
  const Mode modes[] = {
      {"uniform", run::ExperimentSpec::FailureCorr::Uniform},
      {"region", run::ExperimentSpec::FailureCorr::Region},
      {"public", run::ExperimentSpec::FailureCorr::Public},
      {"private", run::ExperimentSpec::FailureCorr::Private},
  };
  struct System {
    const char* name;
    const char* protocol;
  };
  const System systems[] = {
      // Like-for-like with the single-view baseline (see fig7b).
      {"croupier", "croupier:alpha=25,gamma=50,sizing=proportional"},
      {"gozar", "gozar"},
  };

  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "ablation: correlated failure cohorts vs uniform; %zu nodes, "
      "80%% private, %zu run(s); biggest usable cluster and surviving "
      "ratio right after the crash",
      n, args.runs));

  // Grid: (failure level x system x mode), flattened so every cell is
  // its own parallel trial.
  const std::size_t points =
      std::size(fail_levels) * std::size(systems) * std::size(modes);
  const auto grid = bench::run_trial_grid(
      args, points, [&](std::size_t p, std::uint64_t seed) {
        const int level =
            fail_levels[p / (std::size(systems) * std::size(modes))];
        const System& system =
            systems[(p / std::size(modes)) % std::size(systems)];
        const Mode& mode = modes[p % std::size(modes)];
        return run_failure(
            {.protocol = system.protocol, .nodes = n,
             .failure_frac = static_cast<double>(level) / 100.0,
             .failure_at_s = 60, .failure_corr = mode.corr,
             .duration_s = 60.001,
             .record = run::ExperimentSpec::RecordKind::None},
            seed, args.world_jobs);
      });

  const auto cell = [&](std::size_t li, std::size_t si, std::size_t mi)
      -> const std::vector<TrialResult>& {
    return grid[(li * std::size(systems) + si) * std::size(modes) + mi];
  };

  const auto print_table = [&](const char* what, auto pick) {
    sink.raw(exp::strf("%s:", what));
    std::string header = exp::strf("%-10s %-10s", "system", "failure%");
    for (const auto& mode : modes) header += exp::strf(" %10s", mode.name);
    sink.raw(header);
    for (std::size_t si = 0; si < std::size(systems); ++si) {
      for (std::size_t li = 0; li < std::size(fail_levels); ++li) {
        std::string line = exp::strf("%-10s %-10d", systems[si].name,
                                     fail_levels[li]);
        for (std::size_t mi = 0; mi < std::size(modes); ++mi) {
          exp::Accum acc;
          for (const auto& res : cell(li, si, mi)) acc.add(pick(res));
          line += exp::strf(" %10.3f", acc.mean());
          bench::emit_value(sink,
                            exp::strf("corr-failure=%d %s %s", fail_levels[li],
                                      systems[si].name, what),
                            modes[mi].name, acc);
        }
        sink.raw(line);
      }
    }
    sink.blank();
  };

  print_table("biggest-cluster",
              [](const TrialResult& r) { return r.cluster; });
  print_table("survivor-ratio",
              [](const TrialResult& r) { return r.survivor_ratio; });
  return 0;
}
