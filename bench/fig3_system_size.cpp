// Regenerates paper figure 3(a)/(b): estimation accuracy versus system
// size (50, 100, 500, 1000, 5000 nodes; ω = 0.2; α=25, γ=50).
//
// Expected shape: error shrinks with system size; large improvements up
// to a few hundred nodes, marginal beyond 1000 (paper: ~5% avg error at
// 50 nodes, ~2.5% at 100, ~0.2-0.4% at 1000-5000).
//
// --mega[=N1,N2,...] switches to the scale extension: a sweep over much
// larger worlds (default 10^5 and 10^6 nodes) recording the O(sample)
// streaming overlay metrics (record=graph-sampled) instead of
// estimation error, with per-point wall-clock and resident-memory
// reported on stderr. Instant joins and constant latency keep the
// simulated horizon short; the point is the memory/throughput envelope
// of the arena-backed partial views, not another accuracy figure. Without
// --mega the bench's output is byte-identical to before the extension.
#include <chrono>
#include <span>

#include "bench_common.hpp"
#include "exp/memory.hpp"

namespace {

struct MegaFlags {
  bool enabled = false;
  std::vector<std::size_t> sizes = {100'000, 1'000'000};

  bool consume(const std::string& arg) {
    if (arg == "--mega") {
      enabled = true;
      return true;
    }
    if (arg.rfind("--mega=", 0) != 0) return false;
    enabled = true;
    sizes.clear();
    std::string list = arg.substr(7);
    for (std::size_t pos = 0; pos < list.size();) {
      const std::size_t comma = std::min(list.find(',', pos), list.size());
      std::uint64_t n = 0;
      croupier::bench::BenchArgs::parse_u64(
          "--mega", list.substr(pos, comma - pos), n);
      if (n > 0) sizes.push_back(static_cast<std::size_t>(n));
      pos = comma + 1;
    }
    if (sizes.empty()) sizes = {100'000, 1'000'000};
    return true;
  }
};

int run_mega(const croupier::bench::BenchArgs& args,
             std::span<const std::size_t> sizes) {
  using namespace croupier;
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "fig3-mega: sampled overlay randomness vs system size (omega=0.2, "
      "alpha=25, gamma=50), %zu run(s)",
      args.runs));
  sink.blank();

  for (std::size_t p = 0; p < sizes.size(); ++p) {
    const std::size_t n = sizes[p];
    exp::SeriesAccum apl;
    exp::SeriesAccum cc;
    exp::SeriesAccum comp;
    std::vector<double> t;
    // Trials run serially on this thread: a 10^6-node World is the
    // footprint being measured, and concurrent trials would both blur
    // the attribution and double the peak.
    for (std::size_t r = 0; r < args.runs; ++r) {
      const run::ExperimentSpec spec{
          .protocol = bench::croupier_proto(25, 50), .nodes = n, .ratio = 0.2,
          .join = run::ExperimentSpec::JoinKind::Instant,
          .latency = run::World::LatencyKind::Constant, .latency_ms = 50,
          .duration_s = args.fast ? 12.0 : 30.0,
          .record = run::ExperimentSpec::RecordKind::GraphSampled,
          .record_every_s = 10};
      // Per-point wall-clock for the stderr progress line only; never
      // written to the CSV/JSON output.
      const auto start = std::chrono::steady_clock::now();
      run::Experiment experiment(spec, exp::trial_seed(args.seed, p, r),
                                 args.world_jobs);
      experiment.run();
      const auto wall_end = std::chrono::steady_clock::now();
      const std::chrono::duration<double> wall = wall_end - start;

      std::vector<double> run_apl;
      std::vector<double> run_cc;
      std::vector<double> run_comp;
      std::vector<double> run_t;
      for (const auto& point : experiment.graph_sampled()->series()) {
        run_t.push_back(point.t_seconds);
        run_apl.push_back(point.avg_path_length);
        run_cc.push_back(point.clustering_coefficient);
        run_comp.push_back(point.largest_component_fraction);
      }
      if (t.empty()) t = run_t;
      apl.add(run_apl);
      cc.add(run_cc);
      comp.add(run_comp);

      std::fprintf(stderr,
                   "# mega n=%zu run=%zu: wall=%.2fs rss-now=%.1fMiB "
                   "peak-rss=%.1fMiB\n",
                   n, r, wall.count(),
                   static_cast<double>(exp::current_rss_bytes()) /
                       (1024.0 * 1024.0),
                   static_cast<double>(exp::peak_rss_bytes()) /
                       (1024.0 * 1024.0));
    }

    bench::emit_series(sink, exp::strf("fig3m avg-path-length n=%zu", n), t,
                       apl.means(), apl.stddevs(), args.runs, "%.0f",
                       "%.4f");
    bench::emit_series(sink, exp::strf("fig3m clustering n=%zu", n), t,
                       cc.means(), cc.stddevs(), args.runs, "%.0f", "%.5f");
    bench::emit_series(sink, exp::strf("fig3m largest-component n=%zu", n),
                       t, comp.means(), comp.stddevs(), args.runs, "%.0f",
                       "%.4f");
    const std::string block = exp::strf("summary mega n=%zu", n);
    const auto means = apl.means();
    const auto comp_means = comp.means();
    const double final_apl = means.empty() ? 0.0 : means.back();
    const double final_comp = comp_means.empty() ? 0.0 : comp_means.back();
    sink.comment(exp::strf("%s: final apl=%.3f final largest-component=%.4f",
                           block.c_str(), final_apl, final_comp));
    sink.blank();
    sink.value(block, "final apl", final_apl);
    sink.value(block, "final largest-component", final_comp);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace croupier;
  MegaFlags mega;
  const auto args = bench::BenchArgs::parse(
      argc, argv, [&mega](const std::string& a) { return mega.consume(a); });
  if (mega.enabled) {
    return run_mega(args, std::span<const std::size_t>(mega.sizes));
  }
  const double duration = args.fast ? 100 : 200;
  const std::size_t sizes_full[] = {50, 100, 500, 1000, 5000};
  const std::size_t sizes_fast[] = {50, 100, 500};
  const auto sizes = args.fast ? std::span<const std::size_t>(sizes_fast)
                               : std::span<const std::size_t>(sizes_full);

  exp::TrialPool pool(args.trial_jobs());
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "fig3: estimation error vs system size (omega=0.2, alpha=25, "
      "gamma=50), %zu run(s)",
      args.runs));
  sink.blank();

  const auto grid = bench::run_series_grid(
      pool, args, sizes.size(), [&](std::size_t p, std::uint64_t seed) {
        return bench::run_spec_series(
            {.protocol = bench::croupier_proto(25, 50), .nodes = sizes[p],
             .duration_s = duration},
            seed, args.world_jobs);
      });

  for (std::size_t p = 0; p < sizes.size(); ++p) {
    const std::size_t n = sizes[p];
    const auto& agg = grid[p];

    bench::emit_series(sink, exp::strf("fig3a avg-error n=%zu", n), agg.t,
                       agg.avg_err, agg.avg_err_sd, args.runs);
    bench::emit_series(sink, exp::strf("fig3b max-error n=%zu", n), agg.t,
                       agg.max_err, agg.max_err_sd, args.runs);

    const std::string block = exp::strf("summary n=%zu", n);
    const double steady_avg = bench::steady_state(agg.avg_err);
    const double steady_max = bench::steady_state(agg.max_err);
    sink.comment(exp::strf("%s: steady avg-err=%.5f steady max-err=%.5f",
                           block.c_str(), steady_avg, steady_max));
    sink.blank();
    sink.value(block, "steady avg-err", steady_avg);
    sink.value(block, "steady max-err", steady_max);
  }
  return 0;
}
