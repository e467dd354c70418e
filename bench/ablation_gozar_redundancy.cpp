// Ablation: Gozar's relay redundancy (1 = default single relay with
// failover; >1 = the redundant-relaying variant). Trades duplicated relay
// traffic for exchange reliability and post-failure reachability.
#include <iterator>

#include "bench_common.hpp"
#include "metrics/overhead.hpp"

namespace {

using namespace croupier;

struct TrialResult {
  double pub_load = 0;
  double priv_load = 0;
  double cluster = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 300 : 1000;
  const auto warmup = sim::sec(60);
  const auto window = sim::sec(60);
  const std::size_t redundancies[] = {1, 2, 3};

  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "ablation: Gozar relay redundancy; %zu nodes, 80%% private, "
      "%zu run(s)",
      n, args.runs));
  sink.raw(exp::strf("%-12s %14s %15s %18s", "redundancy", "pub-load(B/s)",
                     "priv-load(B/s)", "cluster@80%fail"));

  const auto grid = bench::run_trial_grid(
      args, std::size(redundancies),
      [&](std::size_t p, std::uint64_t seed) {
        run::Experiment experiment(
            {.protocol = exp::strf("gozar:redundancy=%zu", redundancies[p]),
             .nodes = n, .duration_s = sim::to_seconds(warmup + window) + 0.001,
             .record = run::ExperimentSpec::RecordKind::None},
            seed, args.world_jobs);
        experiment.run_until(warmup);
        experiment.world().network().meter().reset();
        experiment.run_until(warmup + window);
        const auto load = metrics::summarize_load(
            experiment.world().network().meter(),
            experiment.world().class_map(), window);

        TrialResult res;
        res.pub_load = load.public_bytes_per_sec;
        res.priv_load = load.private_bytes_per_sec;

        // The crash is scheduled only after the load window has been
        // summarized: the overhead numbers must describe the healthy
        // overlay, not a half-dead one.
        run::CatastropheProcess crash(experiment.world(), 0.8);
        crash.start(warmup + window);
        experiment.run_until(warmup + window + sim::msec(1));
        res.cluster = experiment.world()
                          .snapshot_overlay(true)
                          .largest_component_fraction();
        return res;
      });

  for (std::size_t p = 0; p < std::size(redundancies); ++p) {
    exp::Accum pub_load;
    exp::Accum priv_load;
    exp::Accum cluster;
    for (const auto& res : grid[p]) {
      pub_load.add(res.pub_load);
      priv_load.add(res.priv_load);
      cluster.add(res.cluster);
    }
    sink.raw(exp::strf("%-12zu %14.1f %15.1f %18.3f", redundancies[p],
                       pub_load.mean(), priv_load.mean(), cluster.mean()));
    const std::string block = exp::strf("redundancy=%zu", redundancies[p]);
    bench::emit_value(sink, block, "pub-load B/s", pub_load);
    bench::emit_value(sink, block, "priv-load B/s", priv_load);
    bench::emit_value(sink, block, "cluster@80%fail", cluster);
  }
  return 0;
}
