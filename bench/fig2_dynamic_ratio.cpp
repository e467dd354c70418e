// Regenerates paper figure 2(a)/(b): estimator behaviour when the
// public/private ratio *changes* mid-run.
//
// Paper setup: the fig. 1 join pattern, then from t=58 s one extra public
// node joins every 42 ms for 14 s. (The paper's prose quotes ratio
// 0.30->0.33 for this phase, which is inconsistent with its own
// 1000/4000 population: 14 s / 42 ms ≈ 333 extra publics, so the step
// is 1000/5000 = 0.20 -> 1333/5333 = 0.25. The *shape* claim is
// unaffected.)
//
// Expected shape: small windows re-converge to the new ratio first;
// large windows lag but win on final accuracy once the ratio stabilizes.
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace croupier;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t nodes = args.fast ? 500 : 5000;  // ω = 0.2
  const std::size_t extra_publics = args.fast ? 33 : 333;
  const double step_at = 58;
  const double duration = args.fast ? 150 : 300;

  const std::pair<std::size_t, std::size_t> windows[] = {
      {10, 25}, {25, 50}, {100, 250}};

  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "fig2: dynamic-ratio estimation error; %zu+%zu nodes, +%zu publics "
      "from t=58s at 42ms, %zu run(s)",
      nodes / 5, nodes - nodes / 5, extra_publics, args.runs));
  sink.blank();

  const auto grid = bench::run_trial_grid(
      args, std::size(windows), [&](std::size_t p, std::uint64_t seed) {
        const auto& [alpha, gamma] = windows[p];
        return bench::run_spec_series(
            {.protocol = bench::croupier_proto(alpha, gamma), .nodes = nodes,
             .step_publics = extra_publics, .step_at_s = step_at,
             .step_every_ms = 42, .duration_s = duration},
            seed, args.world_jobs);
      });

  bool truth_printed = false;
  for (std::size_t p = 0; p < std::size(windows); ++p) {
    const auto& [alpha, gamma] = windows[p];
    const auto agg = bench::aggregate(grid[p]);

    if (!truth_printed) {
      truth_printed = true;
      sink.series("fig2 true-ratio", agg.t, agg.truth);
    }

    bench::emit_series(
        sink, exp::strf("fig2a avg-error alpha=%zu gamma=%zu", alpha, gamma),
        agg.t, agg.avg_err, agg.avg_err_sd, args.runs);
    bench::emit_series(
        sink, exp::strf("fig2b max-error alpha=%zu gamma=%zu", alpha, gamma),
        agg.t, agg.max_err, agg.max_err_sd, args.runs);

    // Re-convergence diagnostic: first time after the step that the
    // average error returns below 1%.
    double reconverged = -1;
    for (std::size_t i = 0; i < agg.t.size(); ++i) {
      if (agg.t[i] > step_at + 14.0 && agg.avg_err[i] < 0.01) {
        reconverged = agg.t[i];
        break;
      }
    }
    const std::string block =
        exp::strf("summary alpha=%zu gamma=%zu", alpha, gamma);
    const double steady_avg = bench::steady_state(agg.avg_err);
    sink.comment(exp::strf("%s: steady avg-err=%.5f reconverged(<1%%)@t=%.0fs",
                           block.c_str(), steady_avg, reconverged));
    sink.blank();
    sink.value(block, "steady avg-err", steady_avg);
    sink.value(block, "reconverged-at-s", reconverged);
  }
  return 0;
}
