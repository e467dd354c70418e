// Regenerates paper figure 1(a)/(b): convergence of the public/private
// ratio estimator to a *stable* ratio, for three history-window pairs.
//
// Paper setup: 1000 public + 4000 private nodes join by Poisson processes
// (50 ms / 12.5 ms inter-arrival), ω = 0.2, 250 rounds;
// (α, γ) ∈ {(10,25), (25,50), (100,250)}.
//
// Expected shape: larger windows converge more slowly but to lower
// steady-state error, on both the average (a) and maximum (b) metrics.
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace croupier;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t nodes = args.fast ? 500 : 5000;  // ω = 0.2
  // 350 s rather than the paper's 250: the largest history window is
  // still converging at t=250 (the paper notes it converges ~100 rounds
  // later); the longer horizon makes the accuracy crossover visible.
  const double duration = args.fast ? 120 : 350;

  const std::pair<std::size_t, std::size_t> windows[] = {
      {10, 25}, {25, 50}, {100, 250}};

  exp::TrialPool pool(args.trial_jobs());
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "fig1: stable-ratio estimation error; %zu public + %zu private "
      "nodes (omega=0.2), %zu run(s)",
      nodes / 5, nodes - nodes / 5, args.runs));
  sink.blank();

  const auto grid = bench::run_series_grid(
      pool, args, std::size(windows), [&](std::size_t p, std::uint64_t seed) {
        const auto& [alpha, gamma] = windows[p];
        return bench::run_spec_series(
            {.protocol = bench::croupier_proto(alpha, gamma), .nodes = nodes,
             .duration_s = duration},
            seed, args.world_jobs);
      });

  for (std::size_t p = 0; p < std::size(windows); ++p) {
    const auto& [alpha, gamma] = windows[p];
    bench::emit_estimation(
        sink, exp::strf("fig1a avg-error alpha=%zu gamma=%zu", alpha, gamma),
        exp::strf("fig1b max-error alpha=%zu gamma=%zu", alpha, gamma),
        exp::strf("summary alpha=%zu gamma=%zu", alpha, gamma), grid[p],
        args.runs);
  }
  return 0;
}
