// Regenerates paper figure 4(a)/(b): estimation accuracy for different
// stable public/private ratios (1000 nodes).
//
// Paper sweeps ω ∈ {0.05, 0.1, 0.2, 0.33, 0.5, 0.8} (the figure legend
// prints 0.9 where the text says 80%; we follow the text).
//
// Expected shape: the average error is insensitive to ω; at ω = 0.05 the
// maximum error is markedly worse (an outlier private node receives too
// few distinct estimates).
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace croupier;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 300 : 1000;
  const double duration = args.fast ? 100 : 200;
  const double ratios[] = {0.05, 0.1, 0.2, 0.33, 0.5, 0.8};

  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "fig4: estimation error vs public/private ratio (%zu nodes), "
      "%zu run(s)",
      n, args.runs));
  sink.blank();

  const auto grid = bench::run_trial_grid(
      args, std::size(ratios), [&](std::size_t p, std::uint64_t seed) {
        return bench::run_spec_series(
            {.protocol = bench::croupier_proto(25, 50), .nodes = n,
             .ratio = ratios[p], .duration_s = duration},
            seed, args.world_jobs);
      });

  for (std::size_t p = 0; p < std::size(ratios); ++p) {
    const double ratio = ratios[p];
    bench::emit_estimation(sink, exp::strf("fig4a avg-error ratio=%.2f", ratio),
                           exp::strf("fig4b max-error ratio=%.2f", ratio),
                           exp::strf("summary ratio=%.2f", ratio),
                           bench::aggregate(grid[p]), args.runs);
  }
  return 0;
}
