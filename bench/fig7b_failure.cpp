// Regenerates paper figure 7(b): overlay connectivity after catastrophic
// failure.
//
// Setup: 1000 nodes, 80% private, warmed up for 60 s; at one instant a
// fraction (40%..90%) of all nodes crashes. We then measure the biggest
// cluster among survivors on the *usable-edge* graph: an edge to a
// private node only counts if the holder's traversal machinery for it
// still works (Gozar: some cached relay parent alive; Nylon: RVP chain
// head alive; Croupier: nothing to break — initiative lies with the
// private node itself).
//
// Expected shape: Croupier (and all-public Cyclon) retain a dominant
// cluster even at 90% failure (paper: >85% of survivors with 80% private
// nodes), while Gozar and Nylon degrade to ~50-60%.
#include <iterator>
#include <string>

#include "bench_common.hpp"

namespace {

using namespace croupier;

double cluster_fraction(const run::ExperimentSpec& spec, std::uint64_t seed,
                        std::size_t world_jobs) {
  run::Experiment experiment(spec, seed, world_jobs);
  // The spec crashes the nodes at t=60 s and the horizon stops 1 ms
  // later: the largest usable cluster is measured right after the crash,
  // before any healing rounds.
  experiment.run();
  return experiment.world()
      .snapshot_overlay(/*usable_only=*/true)
      .largest_component_fraction();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 300 : 1000;  // 80% private, as the paper
  const int fail_levels[] = {40, 50, 60, 70, 80, 90};

  struct Row {
    const char* name;
    const char* protocol;
    bool all_public = false;
  };
  const Row rows[] = {
      // Like-for-like with the single-view systems: Croupier's two views
      // share the 10-slot budget (see core::ViewSizing in
      // src/core/croupier.hpp).
      {"croupier", "croupier:alpha=25,gamma=50,sizing=proportional"},
      {"gozar", "gozar"},
      {"nylon", "nylon"},
      {"cyclon", "cyclon", true},
  };

  exp::TrialPool pool(args.trial_jobs());
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "fig7b: biggest cluster (%% of survivors) after catastrophic "
      "failure; %zu nodes, 80%% private, %zu run(s)",
      n, args.runs));
  std::string header = exp::strf("%-10s", "failure%");
  for (const auto& row : rows) header += exp::strf(" %10s", row.name);
  sink.raw(header);

  // The sweep is (failure level x system); flatten it into one grid so
  // every cell is its own parallel trial.
  const std::size_t points = std::size(fail_levels) * std::size(rows);
  const auto grid = bench::run_trial_grid(
      pool, args, points, [&](std::size_t p, std::uint64_t seed) {
        const int level = fail_levels[p / std::size(rows)];
        const Row& row = rows[p % std::size(rows)];
        return cluster_fraction(
            {.protocol = row.protocol, .nodes = n,
             .ratio = row.all_public ? 1.0 : 0.2,
             .catastrophe = static_cast<double>(level) / 100.0,
             .catastrophe_at_s = 60, .duration_s = 60.001,
             .record = run::ExperimentSpec::RecordKind::None},
            seed, args.world_jobs);
      });

  for (std::size_t li = 0; li < std::size(fail_levels); ++li) {
    std::string line = exp::strf("%-10d", fail_levels[li]);
    for (std::size_t ri = 0; ri < std::size(rows); ++ri) {
      exp::Accum pct;
      for (double frac : grid[li * std::size(rows) + ri]) {
        pct.add(100.0 * frac);
      }
      line += exp::strf(" %10.1f", pct.mean());
      const std::string block =
          exp::strf("fig7b failure=%d", fail_levels[li]);
      sink.value(block, rows[ri].name, pct.mean());
      if (args.runs > 1) sink.spread(block, rows[ri].name, pct.stddev());
    }
    sink.raw(line);
  }
  return 0;
}
