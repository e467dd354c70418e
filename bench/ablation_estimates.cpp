// Ablation: how many estimate entries to piggy-back per shuffle message
// (the paper bounds this at 10, i.e. 50 B per message).
//
// Sweeps the share limit and reports steady-state estimation error and
// the measured per-node load — the accuracy/overhead trade-off behind the
// paper's choice.
#include <iterator>

#include "bench_common.hpp"
#include "metrics/overhead.hpp"

namespace {

using namespace croupier;

struct TrialResult {
  double avg_err = 0;
  double max_err = 0;
  double pub_load = 0;
  double priv_load = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 300 : 1000;
  const auto warmup = sim::sec(args.fast ? 60 : 120);
  const auto window = sim::sec(60);
  const std::size_t limits[] = {1, 2, 5, 10, 20};

  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "ablation: estimate share limit (paper: 10); %zu nodes, %zu run(s)",
      n, args.runs));
  sink.raw(exp::strf("%-8s %12s %12s %14s %15s", "limit", "avg-err",
                     "max-err", "pub-load(B/s)", "priv-load(B/s)"));

  const auto grid = bench::run_trial_grid(
      args, std::size(limits), [&](std::size_t p, std::uint64_t seed) {
        run::Experiment experiment(
            {.protocol = exp::strf("croupier:alpha=25,gamma=50,"
                                   "share_limit=%zu",
                                   limits[p]),
             .nodes = n, .duration_s = sim::to_seconds(warmup + window)},
            seed, args.world_jobs);
        experiment.run_until(warmup);
        experiment.world().network().meter().reset();
        experiment.run_until(warmup + window);

        TrialResult res;
        res.avg_err = experiment.estimation()->latest().sample.avg_error;
        res.max_err = experiment.estimation()->latest().sample.max_error;
        const auto load = metrics::summarize_load(
            experiment.world().network().meter(),
            experiment.world().class_map(), window);
        res.pub_load = load.public_bytes_per_sec;
        res.priv_load = load.private_bytes_per_sec;
        return res;
      });

  for (std::size_t p = 0; p < std::size(limits); ++p) {
    exp::Accum avg_err;
    exp::Accum max_err;
    exp::Accum pub_load;
    exp::Accum priv_load;
    for (const auto& res : grid[p]) {
      avg_err.add(res.avg_err);
      max_err.add(res.max_err);
      pub_load.add(res.pub_load);
      priv_load.add(res.priv_load);
    }
    sink.raw(exp::strf("%-8zu %12.5f %12.5f %14.1f %15.1f", limits[p],
                       avg_err.mean(), max_err.mean(), pub_load.mean(),
                       priv_load.mean()));
    const std::string block = exp::strf("share-limit=%zu", limits[p]);
    bench::emit_value(sink, block, "avg-err", avg_err);
    bench::emit_value(sink, block, "max-err", max_err);
    bench::emit_value(sink, block, "pub-load B/s", pub_load);
    bench::emit_value(sink, block, "priv-load B/s", priv_load);
  }
  return 0;
}
