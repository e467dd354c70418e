// Ablation: clock skew and the estimator's first assumption ("no bias
// between the average gossip round-time of public and private nodes").
//
// Two sweeps:
//  1. symmetric skew — every node's period is scaled by 1±s uniformly:
//     the assumption holds and the estimate should stay unbiased;
//  2. adversarial bias — private nodes gossip `b` slower than public
//     nodes: privates send fewer requests per unit time, croupiers
//     over-count publics, and Ê(ω) acquires a predictable upward bias of
//     ω(1+b)/(ω(1+b)+(1-ω)) − ω. This quantifies how much the paper's
//     assumption actually matters and validates the estimator's physics.
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace croupier;

double measure_bias(const run::ExperimentSpec& spec, std::uint64_t seed,
                    std::size_t world_jobs) {
  run::Experiment experiment(spec, seed, world_jobs);
  experiment.run();
  auto& world = experiment.world();

  double sum = 0;
  const auto estimates = world.ratio_estimates();
  if (estimates.empty()) return 0;
  for (double e : estimates) sum += e - world.true_ratio();
  return sum / static_cast<double>(estimates.size());  // signed bias
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 300 : 1000;
  const double duration = args.fast ? 100 : 200;
  const double omega = 0.2;

  // Both sweeps flattened into one trial grid: symmetric-skew points
  // first, then the adversarial private-slowdown points.
  struct Point {
    double skew;
    double slowdown;
  };
  std::vector<Point> sweep;
  const double skews[] = {0.0, 0.01, 0.05, 0.10, 0.20};
  const double slowdowns[] = {0.05, 0.10, 0.20, 0.50};
  for (double skew : skews) sweep.push_back({skew, 0.0});
  for (double slow : slowdowns) sweep.push_back({0.01, slow});

  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "ablation: round-time skew vs estimation bias; %zu nodes, "
      "omega=0.2, %zu run(s)",
      n, args.runs));
  sink.comment("signed bias = mean(estimate - omega); ~0 is unbiased");
  sink.raw(exp::strf("%-26s %12s %12s", "scenario", "measured", "predicted"));

  const auto grid = bench::run_trial_grid(
      args, sweep.size(), [&](std::size_t p, std::uint64_t seed) {
        return measure_bias(
            {.protocol = bench::croupier_proto(25, 50), .nodes = n,
             .skew = sweep[p].skew,
             .private_round_scale = 1.0 + sweep[p].slowdown,
             .duration_s = duration,
             .record = run::ExperimentSpec::RecordKind::None},
            seed, args.world_jobs);
      });

  for (std::size_t p = 0; p < sweep.size(); ++p) {
    const Point& pt = sweep[p];
    exp::Accum bias;
    for (double b : grid[p]) bias.add(b);

    if (pt.slowdown == 0.0) {
      sink.raw(exp::strf("symmetric skew %4.0f%%      %+12.5f %+12.5f",
                         pt.skew * 100, bias.mean(), 0.0));
      const std::string block = exp::strf("symmetric-skew=%.0f%%",
                                          pt.skew * 100);
      bench::emit_value(sink, block, "measured", bias);
      sink.value(block, "predicted", 0.0);
    } else {
      const double predicted =
          omega * (1.0 + pt.slowdown) /
              (omega * (1.0 + pt.slowdown) + (1.0 - omega)) -
          omega;
      sink.raw(exp::strf("privates %3.0f%% slower      %+12.5f %+12.5f",
                         pt.slowdown * 100, bias.mean(), predicted));
      const std::string block = exp::strf("private-slowdown=%.0f%%",
                                          pt.slowdown * 100);
      bench::emit_value(sink, block, "measured", bias);
      sink.value(block, "predicted", predicted);
    }
  }
  return 0;
}
