// Ablation: view-merge policy — swapper (the paper's choice, minimal
// information loss) vs healer (fastest purge of stale descriptors).
//
// Compares the two policies for Croupier under churn on: estimation
// error, mean age of view entries, and the fraction of view entries that
// point at dead nodes (the quantity healer is designed to minimize).
#include <iterator>

#include "bench_common.hpp"
#include "core/croupier.hpp"

namespace {

using namespace croupier;

struct TrialResult {
  double avg_err = 0;
  double mean_age = 0;
  double dead_entry_share = 0;
};

TrialResult measure(const run::ExperimentSpec& spec, std::uint64_t seed,
                    std::size_t world_jobs) {
  run::Experiment experiment(spec, seed, world_jobs);
  experiment.run();
  auto& world = experiment.world();

  TrialResult res;
  res.avg_err = experiment.estimation()->latest().sample.avg_error;
  double age_sum = 0;
  std::size_t entries = 0;
  std::size_t dead = 0;
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& p) {
    const auto& c = dynamic_cast<const core::Croupier&>(p);
    for (const auto* view : {&c.public_view(), &c.private_view()}) {
      for (const auto& d : view->entries()) {
        age_sum += static_cast<double>(d.age);
        ++entries;
        if (!world.alive(d.id)) ++dead;
      }
    }
  });
  res.mean_age = entries > 0 ? age_sum / static_cast<double>(entries) : 0;
  res.dead_entry_share =
      entries > 0 ? static_cast<double>(dead) / static_cast<double>(entries)
                  : 0;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 300 : 1000;
  const double duration = args.fast ? 100 : 200;
  const double churn = 0.01;  // 1%/round

  const char* policies[] = {"swapper", "healer"};

  exp::TrialPool pool(args.trial_jobs());
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "ablation: merge policy under %.0f%%/round churn; %zu nodes, "
      "%zu run(s)",
      churn * 100, n, args.runs));
  sink.raw(exp::strf("%-10s %10s %10s %14s", "policy", "avg-err", "mean-age",
                     "dead-entries"));

  const auto grid = bench::run_trial_grid(
      pool, args, std::size(policies), [&](std::size_t p, std::uint64_t seed) {
        return measure(
            {.protocol = exp::strf("croupier:alpha=25,gamma=50,merge=%s",
                                   policies[p]),
             .nodes = n, .churn = churn, .churn_at_s = 30,
             .duration_s = duration},
            seed, args.world_jobs);
      });

  for (std::size_t p = 0; p < std::size(policies); ++p) {
    exp::Accum avg_err;
    exp::Accum mean_age;
    exp::Accum dead_share;
    for (const auto& res : grid[p]) {
      avg_err.add(res.avg_err);
      mean_age.add(res.mean_age);
      dead_share.add(100.0 * res.dead_entry_share);
    }
    sink.raw(exp::strf("%-10s %10.5f %10.2f %13.1f%%", policies[p],
                       avg_err.mean(), mean_age.mean(), dead_share.mean()));
    const std::string block = exp::strf("merge=%s", policies[p]);
    bench::emit_value(sink, block, "avg-err", avg_err);
    bench::emit_value(sink, block, "mean-age", mean_age);
    bench::emit_value(sink, block, "dead-entries %", dead_share);
  }
  return 0;
}
