// Shared plumbing for the figure-regeneration benches: flag parsing,
// paper-default experiment specs, parallel trial fan-out, and
// series/table printing.
//
// Every bench binary regenerates one figure of the paper and prints the
// same rows/series the figure plots. Flags:
//   --runs=N   independent seeds averaged per data point (default 2 to
//              keep the full-suite wall clock modest; the paper averaged
//              5 — pass --runs=5 for publication-grade smoothing). With
//              --runs>1 every series row carries a third column: the
//              across-runs standard deviation (gnuplot errorbars).
//   --seed=S   base seed (default 1)
//   --jobs=N   total worker-thread budget (default: hardware
//              concurrency). Output is byte-identical for every N.
//   --world-jobs=N  workers *inside* each trial World (the
//              round-synchronous parallel engine; default 1). The trial
//              fan-out divides --jobs by this so trial-level and
//              world-level parallelism share one core budget. Output is
//              byte-identical for every N.
//   --csv=PATH mirror every emitted data point into a CSV file
//   --fast     shrink scale for smoke-testing (CI-friendly)
// Unknown flags warn on stderr (a typo like --run=5 must be visible, not
// silently revert to the default).
//
// Experiments are declarative: a bench builds run::ExperimentSpec values
// (protocol chosen by ProtocolRegistry name, e.g.
// "croupier:alpha=25,gamma=50") and fans the runs x points trial grid
// out with run_trial_grid; the per-trial seed is derived with
// exp::trial_seed, never by ad-hoc seed arithmetic, so growing --runs or
// reordering sweep points cannot make trials share a seed lineage.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/parallel_map.hpp"
#include "exp/seeds.hpp"
#include "exp/sink.hpp"
#include "runtime/recorder.hpp"
#include "runtime/registry.hpp"
#include "runtime/spec.hpp"
#include "runtime/world.hpp"

namespace croupier::bench {

/// True when this binary was compiled under any sanitizer. Detection is
/// belt-and-braces: the build system defines CROUPIER_SANITIZED whenever
/// -fsanitize appears in the flags (gcc has no UBSan macro), gcc defines
/// __SANITIZE_ADDRESS__/__SANITIZE_THREAD__ itself, and clang exposes
/// __has_feature. Sanitized timings are 2-20x off; they must never be
/// mistaken for a performance baseline.
[[nodiscard]] constexpr bool built_with_sanitizer() {
#if defined(CROUPIER_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

struct BenchArgs {
  std::size_t runs = 2;
  std::uint64_t seed = 1;
  std::size_t jobs = 0;        // 0 = hardware concurrency
  std::size_t world_jobs = 1;  // workers inside each trial World
  std::string csv;             // empty = no CSV mirror
  bool fast = false;

  /// Trials run at once: --jobs is the *total* core budget, and every
  /// trial World consumes world_jobs of it, so trial-level and
  /// world-level parallelism compose instead of oversubscribing.
  [[nodiscard]] std::size_t trial_jobs() const {
    const std::size_t total =
        jobs != 0 ? jobs
                  : std::max<std::size_t>(
                        1, std::thread::hardware_concurrency());
    return std::max<std::size_t>(1,
                                 total / std::max<std::size_t>(1, world_jobs));
  }

  /// Hook for binaries with extra flags (croupier-lab): called first for
  /// every argument; return true to consume it.
  using ExtraFlagFn = std::function<bool(const std::string&)>;

  static BenchArgs parse(int argc, char** argv,
                         const ExtraFlagFn& extra = {}) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (extra && extra(a)) {
        // consumed by the caller
      } else if (a.rfind("--runs=", 0) == 0) {
        std::uint64_t v = args.runs;
        parse_u64("--runs", a.substr(7), v);
        args.runs = static_cast<std::size_t>(v);
      } else if (a.rfind("--seed=", 0) == 0) {
        parse_u64("--seed", a.substr(7), args.seed);
      } else if (a.rfind("--jobs=", 0) == 0) {
        std::uint64_t v = args.jobs;
        parse_u64("--jobs", a.substr(7), v);
        args.jobs = static_cast<std::size_t>(v);
      } else if (a.rfind("--world-jobs=", 0) == 0) {
        std::uint64_t v = args.world_jobs;
        parse_u64("--world-jobs", a.substr(13), v);
        args.world_jobs = static_cast<std::size_t>(v);
      } else if (a.rfind("--csv=", 0) == 0) {
        if (built_with_sanitizer()) {
          // A sanitized binary must never mirror data points to disk:
          // that CSV is one copy-paste away from becoming the regression
          // baseline, and instrumented timings poison every later
          // comparison. scripts/run_benches.sh checks --build-info for
          // the same reason before writing BENCH_micro.json.
          std::fprintf(stderr,
                       "error: refusing %s: this binary was built with a "
                       "sanitizer (timings are instrumented, not "
                       "baseline-grade); rebuild without -fsanitize\n",
                       a.c_str());
          std::exit(2);
        }
        args.csv = a.substr(6);
      } else if (a == "--fast") {
        args.fast = true;
      } else if (a == "--build-info") {
        // Machine-readable build provenance for scripts/run_benches.sh.
        std::printf("sanitized=%s\n", built_with_sanitizer() ? "yes" : "no");
        std::exit(0);
      } else if (a == "--help") {
        std::printf(
            "flags: --runs=N --seed=S --jobs=N --world-jobs=N --csv=PATH "
            "--fast --build-info\n");
        std::exit(0);  // usage requested — don't launch the full run
      } else {
        // A typo like --run=5 silently reverting to the default cost
        // real debugging time; make every unrecognized argument loud.
        std::fprintf(stderr, "warning: unknown flag %s (ignored)\n",
                     a.c_str());
      }
    }
    if (args.runs == 0) {
      // --runs=0 would feed empty run sets into every aggregate
      // (division by zero in the averages); the least surprising repair
      // is the smallest valid trial count.
      std::fprintf(stderr, "warning: --runs=0 is invalid; clamping to 1\n");
      args.runs = 1;
    }
    if (args.world_jobs == 0) {
      std::fprintf(stderr,
                   "warning: --world-jobs=0 is invalid; clamping to 1\n");
      args.world_jobs = 1;
    }
    const std::size_t budget =
        args.jobs != 0 ? args.jobs
                       : std::max<std::size_t>(
                             1, std::thread::hardware_concurrency());
    if (args.world_jobs > budget) {
      // --jobs is the *total* core budget the two axes share; shards
      // beyond it would silently oversubscribe (output is identical
      // either way, so clamping is safe).
      std::fprintf(stderr,
                   "warning: --world-jobs=%zu exceeds the --jobs budget "
                   "(%zu); clamping\n",
                   args.world_jobs, budget);
      args.world_jobs = budget;
    }
    return args;
  }

 private:
  /// Parses a full decimal number; on malformed or empty input warns on
  /// stderr and leaves `out` untouched, so a typo degrades to the
  /// documented default instead of aborting the bench run.
  static void parse_u64(const std::string& flag, const std::string& text,
                        std::uint64_t& out) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    // strtoull skips leading whitespace and wraps "-1" to UINT64_MAX, so
    // additionally insist the text starts with a digit.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
        end != text.c_str() + text.size() || errno == ERANGE) {
      std::fprintf(stderr, "warning: ignoring malformed %s=%s\n",
                   flag.c_str(), text.c_str());
      return;
    }
    out = v;
  }
};

/// Runs the full runs x points trial grid of an experiment on
/// args.trial_jobs() threads and returns `results[point][run]`, always
/// in grid order regardless of execution order or thread count.
/// `fn(point, seed)` runs one trial; it executes concurrently, so it must
/// only read its captures and build its own World.
template <typename Fn>
auto run_trial_grid(const BenchArgs& args, std::size_t points, Fn&& fn)
    -> std::vector<
        std::vector<std::decay_t<decltype(fn(std::size_t{}, std::uint64_t{}))>>> {
  using R = std::decay_t<decltype(fn(std::size_t{}, std::uint64_t{}))>;
  auto flat = exp::parallel_map(
      points * args.runs, args.trial_jobs(), [&fn, &args](std::size_t i) {
        const std::size_t p = i / args.runs;
        const std::size_t r = i % args.runs;
        return fn(p, exp::trial_seed(args.seed, p, r));
      });
  std::vector<std::vector<R>> out(points);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    out[i / args.runs].push_back(std::move(flat[i]));
  }
  return out;
}

/// Registry spec for Croupier with explicit history windows (the
/// (α, γ) pairs the paper sweeps).
inline std::string croupier_proto(std::size_t alpha, std::size_t gamma) {
  return exp::strf("croupier:alpha=%zu,gamma=%zu", alpha, gamma);
}

/// One run of a Croupier estimation experiment (figures 1-5 all share
/// this skeleton): build a world from the spec, record the error series
/// once per second.
struct EstimationSeries {
  std::vector<double> t;
  std::vector<double> avg_err;
  std::vector<double> max_err;
  std::vector<double> truth;
};

inline EstimationSeries to_series(const run::EstimationRecorder& recorder) {
  EstimationSeries out;
  for (const auto& p : recorder.series()) {
    out.t.push_back(p.t_seconds);
    out.avg_err.push_back(p.sample.avg_error);
    out.max_err.push_back(p.sample.max_error);
    out.truth.push_back(p.sample.truth);
  }
  return out;
}

/// Runs a spec (which must record estimation) to its horizon and returns
/// the error series — the standard trial body of figures 1-5.
/// `world_jobs` picks the engine inside the trial's World (byte-identical
/// output for every value).
inline EstimationSeries run_spec_series(const run::ExperimentSpec& spec,
                                        std::uint64_t seed,
                                        std::size_t world_jobs = 1) {
  run::Experiment experiment(spec, seed, world_jobs);
  experiment.run();
  return to_series(*experiment.estimation());
}

/// Pointwise mean and across-runs standard deviation of several runs of
/// the same experiment (series are sampled on the same 1 s grid).
struct AggregatedSeries {
  std::vector<double> t;
  std::vector<double> avg_err;
  std::vector<double> avg_err_sd;
  std::vector<double> max_err;
  std::vector<double> max_err_sd;
  std::vector<double> truth;
};

/// Aggregates one point's runs through exp::SeriesAccum's Welford
/// update, in run order, so the result is byte-identical for every
/// --jobs value. `proj` picks the EstimationSeries out of a trial result
/// that carries more (croupier-lab's).
template <typename Runs, typename Proj = std::identity>
AggregatedSeries aggregate(const Runs& runs, Proj proj = {}) {
  AggregatedSeries agg;
  exp::SeriesAccum avg_err;
  exp::SeriesAccum max_err;
  exp::SeriesAccum truth;
  for (const auto& run : runs) {
    const EstimationSeries& series = std::invoke(proj, run);
    if (agg.t.empty()) agg.t = series.t;
    avg_err.add(series.avg_err);
    max_err.add(series.max_err);
    truth.add(series.truth);
  }
  agg.t.resize(avg_err.size());
  agg.avg_err = avg_err.means();
  agg.avg_err_sd = avg_err.stddevs();
  agg.max_err = max_err.means();
  agg.max_err_sd = max_err.stddevs();
  agg.truth = truth.means();
  return agg;
}

/// Emits a series block, with the across-runs stddev column whenever more
/// than one run backs each point.
inline void emit_series(exp::ResultSink& sink, const std::string& name,
                        const std::vector<double>& x,
                        const std::vector<double>& y,
                        const std::vector<double>& sd, std::size_t runs,
                        const char* x_fmt = "%.0f",
                        const char* y_fmt = "%.6f") {
  if (runs > 1) {
    sink.series(name, x, y, sd, x_fmt, y_fmt);
  } else {
    sink.series(name, x, y, x_fmt, y_fmt);
  }
}

/// Emits a summary scalar plus its across-runs spread (CSV only).
inline void emit_value(exp::ResultSink& sink, const std::string& block,
                       const std::string& key, const exp::Accum& acc) {
  sink.value(block, key, acc.mean());
  if (acc.n() > 1) sink.spread(block, key, acc.stddev());
}

/// Mean of the tail (steady state) of a series.
inline double steady_state(const std::vector<double>& v,
                           std::size_t tail = 50) {
  if (v.empty()) return 0.0;
  const std::size_t n = std::min(tail, v.size());
  double sum = 0;
  for (std::size_t i = v.size() - n; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

/// Emits one estimation sweep point (figures 1 and 3-5, croupier-lab):
/// its avg- and max-error series, then the steady-state errors as a
/// summary comment and as values of `block`.
inline void emit_estimation(exp::ResultSink& sink, const std::string& avg_name,
                            const std::string& max_name,
                            const std::string& block,
                            const AggregatedSeries& agg, std::size_t runs) {
  emit_series(sink, avg_name, agg.t, agg.avg_err, agg.avg_err_sd, runs);
  emit_series(sink, max_name, agg.t, agg.max_err, agg.max_err_sd, runs);
  const double steady_avg = steady_state(agg.avg_err);
  const double steady_max = steady_state(agg.max_err);
  sink.comment(exp::strf("%s: steady avg-err=%.5f steady max-err=%.5f",
                         block.c_str(), steady_avg, steady_max));
  sink.blank();
  sink.value(block, "steady avg-err", steady_avg);
  sink.value(block, "steady max-err", steady_max);
}

}  // namespace croupier::bench
