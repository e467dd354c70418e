// Regenerates paper figure 7(a): steady-state protocol overhead (average
// load per node, bytes/second, split into public and private nodes) for
// Croupier, Gozar and Nylon, with Cyclon (all-public) as the no-NAT
// reference point.
//
// Paper setup: 1000 nodes, 20% public, α=25, γ=100, 10 estimates per
// shuffle message at 5 B each. Load is measured over a steady-state
// window after warm-up. Expected shape: Croupier cheapest in both
// classes; private nodes in Croupier pay less than half of Gozar's and
// less than a quarter of Nylon's load.
#include <iterator>

#include "bench_common.hpp"
#include "metrics/overhead.hpp"

namespace {

using namespace croupier;

struct Load {
  double pub = 0;
  double priv = 0;
};

Load measure(const run::ExperimentSpec& spec, std::uint64_t seed,
             sim::Duration warmup, sim::Duration window,
             std::size_t world_jobs) {
  run::Experiment experiment(spec, seed, world_jobs);
  experiment.run_until(warmup);
  experiment.world().network().meter().reset();
  experiment.run_until(warmup + window);
  const auto load = metrics::summarize_load(
      experiment.world().network().meter(), experiment.world().class_map(),
      window);
  return Load{load.public_bytes_per_sec, load.private_bytes_per_sec};
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 200 : 1000;
  const auto warmup = sim::sec(args.fast ? 30 : 60);
  const auto window = sim::sec(args.fast ? 30 : 60);

  struct Row {
    const char* name;
    const char* protocol;
    bool all_public = false;
  };
  const Row rows[] = {
      // Paper fig. 7a uses γ=100 for this experiment.
      {"croupier", "croupier:alpha=25,gamma=100"},
      {"gozar", "gozar"},
      {"nylon", "nylon"},
      {"cyclon", "cyclon", true},
  };

  exp::TrialPool pool(args.trial_jobs());
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "fig7a: protocol overhead, avg load per node (B/s), %zu nodes, "
      "20%% public, %zu run(s)",
      n, args.runs));
  sink.raw(exp::strf("%-10s %14s %15s", "protocol", "public(B/s)",
                     "private(B/s)"));

  const auto grid = bench::run_trial_grid(
      pool, args, std::size(rows), [&](std::size_t p, std::uint64_t seed) {
        const Row& row = rows[p];
        // Joins compressed to 10 ms inter-arrival for both classes so the
        // population is complete well before the measurement window.
        return measure(
            {.protocol = row.protocol, .nodes = n,
             .ratio = row.all_public ? 1.0 : 0.2, .join_public_ms = 10,
             .join_private_ms = 10,
             .duration_s = sim::to_seconds(warmup + window),
             .record = run::ExperimentSpec::RecordKind::None},
            seed, warmup, window, args.world_jobs);
      });

  for (std::size_t p = 0; p < std::size(rows); ++p) {
    exp::Accum pub;
    exp::Accum priv;
    for (const auto& load : grid[p]) {
      pub.add(load.pub);
      priv.add(load.priv);
    }
    sink.raw(exp::strf("%-10s %14.1f %15.1f", rows[p].name, pub.mean(),
                       priv.mean()));
    const std::string block = exp::strf("fig7a %s", rows[p].name);
    bench::emit_value(sink, block, "public B/s", pub);
    bench::emit_value(sink, block, "private B/s", priv);
  }
  return 0;
}
