// Regenerates paper figure 5(a)/(b): estimation accuracy under continuous
// churn (1000 nodes, ω = 0.2, α=25, γ=50; churn starts at t=61 s).
//
// Churn model (paper §VII-B): each round a fixed fraction of randomly
// selected public and private nodes is replaced with fresh nodes, keeping
// the ratio stable. Rates: 0.1, 1.0, 2.5, 5.0 %/round — 0.1% matches
// measured P2P session times; 5% is 50x harsher.
//
// Expected shape: churn up to 5 %/round has no significant effect.
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace croupier;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 300 : 1000;
  const double duration = args.fast ? 120 : 250;
  const double churn_rates[] = {0.001, 0.01, 0.025, 0.05};

  exp::TrialPool pool(args.trial_jobs());
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "fig5: estimation error under churn (%zu nodes, omega=0.2, churn "
      "from t=61s), %zu run(s)",
      n, args.runs));
  sink.blank();

  const auto grid = bench::run_series_grid(
      pool, args, std::size(churn_rates),
      [&](std::size_t p, std::uint64_t seed) {
        // The Experiment owns the ChurnProcess, so its lifetime spans
        // the whole run without any per-bench bookkeeping.
        return bench::run_spec_series(
            {.protocol = bench::croupier_proto(25, 50), .nodes = n,
             .churn = churn_rates[p], .churn_at_s = 61, .duration_s = duration},
            seed, args.world_jobs);
      });

  for (std::size_t p = 0; p < std::size(churn_rates); ++p) {
    const double pct = churn_rates[p] * 100;
    bench::emit_estimation(sink, exp::strf("fig5a avg-error churn=%.1f%%", pct),
                           exp::strf("fig5b max-error churn=%.1f%%", pct),
                           exp::strf("summary churn=%.1f%%", pct), grid[p],
                           args.runs);
  }
  return 0;
}
