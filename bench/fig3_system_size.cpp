// Regenerates paper figure 3(a)/(b): estimation accuracy versus system
// size (50, 100, 500, 1000, 5000 nodes; ω = 0.2; α=25, γ=50).
//
// Expected shape: error shrinks with system size; large improvements up
// to a few hundred nodes, marginal beyond 1000 (paper: ~5% avg error at
// 50 nodes, ~2.5% at 100, ~0.2-0.4% at 1000-5000).
#include <span>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace croupier;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const double duration = args.fast ? 100 : 200;
  const std::size_t sizes_full[] = {50, 100, 500, 1000, 5000};
  const std::size_t sizes_fast[] = {50, 100, 500};
  const auto sizes = args.fast ? std::span<const std::size_t>(sizes_fast)
                               : std::span<const std::size_t>(sizes_full);

  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "fig3: estimation error vs system size (omega=0.2, alpha=25, "
      "gamma=50), %zu run(s)",
      args.runs));
  sink.blank();

  const auto grid = bench::run_trial_grid(
      args, sizes.size(), [&](std::size_t p, std::uint64_t seed) {
        return bench::run_spec_series(
            {.protocol = bench::croupier_proto(25, 50), .nodes = sizes[p],
             .duration_s = duration},
            seed, args.world_jobs);
      });

  for (std::size_t p = 0; p < sizes.size(); ++p) {
    const std::size_t n = sizes[p];
    bench::emit_estimation(sink, exp::strf("fig3a avg-error n=%zu", n),
                           exp::strf("fig3b max-error n=%zu", n),
                           exp::strf("summary n=%zu", n),
                           bench::aggregate(grid[p]), args.runs);
  }
  return 0;
}
