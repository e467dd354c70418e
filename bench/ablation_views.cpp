// Ablation: Croupier's view-sizing policy (core::ViewSizing in
// src/core/croupier.hpp — the paper fixes "view size 10" but leaves the
// two-view split open).
//
// Compares Fixed{10,10} (20 tracked descriptors) against
// RatioProportional{10} and RatioProportional{20} on: estimation error,
// in-degree balance (public vs private nodes), and overlay connectivity.
// The estimator must be insensitive to the policy; degree balance is
// where the policies differ.
#include <iterator>

#include "bench_common.hpp"

namespace {

using namespace croupier;

struct TrialResult {
  double steady_avg_err = 0;
  double mean_indeg_public = 0;
  double mean_indeg_private = 0;
  double apl = 0;
};

TrialResult measure(const run::ExperimentSpec& spec, std::uint64_t seed,
                    std::size_t world_jobs) {
  run::Experiment experiment(spec, seed, world_jobs);
  experiment.run();
  auto& world = experiment.world();

  TrialResult res;
  res.steady_avg_err = experiment.estimation()->latest().sample.avg_error;

  const auto graph = world.snapshot_overlay();
  const auto degrees = graph.in_degrees();
  double pub_sum = 0;
  double priv_sum = 0;
  std::size_t pubs = 0;
  std::size_t privs = 0;
  for (std::size_t i = 0; i < graph.ids().size(); ++i) {
    const auto id = graph.ids()[i];
    if (!world.alive(id)) continue;
    if (world.type_of(id) == net::NatType::Public) {
      pub_sum += static_cast<double>(degrees[i]);
      ++pubs;
    } else {
      priv_sum += static_cast<double>(degrees[i]);
      ++privs;
    }
  }
  res.mean_indeg_public = pubs > 0 ? pub_sum / static_cast<double>(pubs) : 0;
  res.mean_indeg_private =
      privs > 0 ? priv_sum / static_cast<double>(privs) : 0;
  sim::RngStream rng = sim::RngStream(seed).fork(0x0A91);
  res.apl = graph.avg_path_length(rng, 128);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 300 : 1000;
  const double duration = args.fast ? 100 : 200;

  struct Variant {
    const char* name;
    const char* protocol;
  };
  const Variant variants[] = {
      {"fixed-10+10",
       "croupier:alpha=25,gamma=50,sizing=fixed,view=10"},
      {"proportional-10",
       "croupier:alpha=25,gamma=50,sizing=proportional,view=10"},
      {"proportional-20",
       "croupier:alpha=25,gamma=50,sizing=proportional,view=20"},
  };

  exp::TrialPool pool(args.trial_jobs());
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "ablation: Croupier view-sizing policy; %zu nodes, %zu run(s)", n,
      args.runs));
  sink.raw(exp::strf("%-16s %10s %12s %13s %8s", "policy", "avg-err",
                     "indeg(pub)", "indeg(priv)", "apl"));

  const auto grid = bench::run_trial_grid(
      pool, args, std::size(variants), [&](std::size_t p, std::uint64_t seed) {
        return measure({.protocol = variants[p].protocol, .nodes = n,
                        .duration_s = duration},
                       seed, args.world_jobs);
      });

  for (std::size_t p = 0; p < std::size(variants); ++p) {
    exp::Accum avg_err;
    exp::Accum indeg_pub;
    exp::Accum indeg_priv;
    exp::Accum apl;
    for (const auto& res : grid[p]) {
      avg_err.add(res.steady_avg_err);
      indeg_pub.add(res.mean_indeg_public);
      indeg_priv.add(res.mean_indeg_private);
      apl.add(res.apl);
    }
    sink.raw(exp::strf("%-16s %10.5f %12.2f %13.2f %8.3f", variants[p].name,
                       avg_err.mean(), indeg_pub.mean(), indeg_priv.mean(),
                       apl.mean()));
    const std::string block = exp::strf("sizing=%s", variants[p].name);
    bench::emit_value(sink, block, "avg-err", avg_err);
    bench::emit_value(sink, block, "indeg-pub", indeg_pub);
    bench::emit_value(sink, block, "indeg-priv", indeg_priv);
    bench::emit_value(sink, block, "apl", apl);
  }
  return 0;
}
