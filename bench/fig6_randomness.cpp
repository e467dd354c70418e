// Regenerates paper figure 6(a)/(b)/(c): randomness properties of the
// overlay built by Croupier, Gozar, Nylon and Cyclon.
//
// Setup (paper §VII-A/C): 1000 nodes, 20% public (Cyclon runs on an
// all-public population of the same size), view size 10, shuffle subset
// 5, 250 rounds.
//  (a) in-degree distribution after 250 rounds (out-degree 10: Croupier
//      uses the ratio-proportional view split so its total degree matches
//      the single-view systems);
//  (b) average path length over time;
//  (c) average clustering coefficient over time.
//
// Expected shape: all four systems close to Cyclon on (a) and (b);
// Croupier's clustering coefficient slightly *lower* than the rest (two
// private nodes never exchange views directly); Gozar's path length
// starts high while private nodes find relay parents.
#include <map>

#include "bench_common.hpp"

namespace {

using namespace croupier;

struct TrialResult {
  std::map<std::size_t, std::size_t> indegree_hist;
  std::vector<run::GraphStatsPoint> series;
};

TrialResult measure(const run::ExperimentSpec& spec, std::uint64_t seed,
                    std::size_t world_jobs) {
  run::Experiment experiment(spec, seed, world_jobs);
  experiment.run();

  TrialResult result;
  result.indegree_hist =
      experiment.world().snapshot_overlay().in_degree_histogram();
  result.series = experiment.graph_stats()->series();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 300 : 1000;
  const double duration = args.fast ? 100 : 250;

  struct Row {
    const char* name;
    const char* protocol;
    bool all_public = false;
  };
  const Row rows[] = {
      {"croupier", "croupier:alpha=25,gamma=50,sizing=proportional"},
      {"gozar", "gozar"},
      {"nylon", "nylon"},
      {"cyclon", "cyclon", true},
  };

  exp::TrialPool pool(args.trial_jobs());
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "fig6: randomness properties; %zu nodes, 20%% public, view 10, "
      "%zu run(s)",
      n, args.runs));
  sink.blank();

  const auto grid = bench::run_trial_grid(
      pool, args, std::size(rows), [&](std::size_t p, std::uint64_t seed) {
        const Row& row = rows[p];
        return measure({.protocol = row.protocol, .nodes = n,
                        .ratio = row.all_public ? 1.0 : 0.2,
                        .duration_s = duration,
                        .record = run::ExperimentSpec::RecordKind::Graph,
                        .record_every_s = 10},
                       seed, args.world_jobs);
      });

  for (std::size_t p = 0; p < std::size(rows); ++p) {
    const Row& row = rows[p];
    // Histogram averaged over runs; the time series from the last run
    // (one representative trajectory, as the paper plots).
    std::map<std::size_t, double> hist;
    for (const auto& trial : grid[p]) {
      for (const auto& [deg, count] : trial.indegree_hist) {
        hist[deg] +=
            static_cast<double>(count) / static_cast<double>(args.runs);
      }
    }
    const auto& series = grid[p].back().series;

    const std::string hist_name = exp::strf(
        "fig6a indegree-histogram %s (after %.0fs)", row.name, duration);
    std::vector<double> degs;
    std::vector<double> counts;
    for (const auto& [deg, count] : hist) {
      degs.push_back(static_cast<double>(deg));
      counts.push_back(count);
    }
    sink.series(hist_name, degs, counts, "%.0f", "%.1f");

    std::vector<double> t;
    std::vector<double> apl;
    std::vector<double> cc;
    for (const auto& pt : series) {
      t.push_back(pt.t_seconds);
      apl.push_back(pt.avg_path_length);
      cc.push_back(pt.clustering_coefficient);
    }
    sink.series(exp::strf("fig6b avg-path-length %s", row.name), t, apl,
                "%.0f", "%.4f");
    sink.series(exp::strf("fig6c clustering-coefficient %s", row.name), t, cc,
                "%.0f", "%.5f");

    const auto& last =
        series.empty() ? run::GraphStatsPoint{} : series.back();
    const std::string block = exp::strf("summary %s", row.name);
    sink.comment(exp::strf(
        "%s: final apl=%.3f final cc=%.4f unreachable=%.4f", block.c_str(),
        last.avg_path_length, last.clustering_coefficient,
        last.unreachable_fraction));
    sink.blank();
    sink.value(block, "final apl", last.avg_path_length);
    sink.value(block, "final cc", last.clustering_coefficient);
    sink.value(block, "unreachable", last.unreachable_fraction);
  }
  return 0;
}
