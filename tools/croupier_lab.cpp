// croupier-lab: the declarative experiment driver.
//
// Runs any run::ExperimentSpec through bench::run_trial_grid and
// exp::ResultSink — the one binary that replaces writing a new bench for
// every new scenario. A sweep is a list of specs: pass --protocol
// repeatedly to compare samplers under identical conditions
// (PeerSwap-style), or --spec repeatedly to run arbitrary serialized
// specs.
//
//   croupier-lab --protocol=croupier --nodes=1000 --ratio=0.2
//                --churn=0.01 --runs=5 --csv=out.csv
//   croupier-lab --protocol=croupier:alpha=10,gamma=25
//                --protocol=croupier:alpha=25,gamma=50 --duration=350
//   croupier-lab --spec="protocol=gozar nodes=500 ratio=0.2 duration=120"
//
// Output matches the fig benches: gnuplot series blocks on stdout (avg-
// and max-error per spec for estimation recording; path length and
// clustering for graph recording), stddev third column when --runs>1,
// optional CSV mirror. Spec points are trial-grid points, so the seed of
// (point p, run r) is exp::trial_seed(seed, p, r) — invoking croupier-lab
// with fig1's three (alpha,gamma) specs reproduces fig1's series
// byte-for-byte at the same --seed/--runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "exp/memory.hpp"

namespace {

using namespace croupier;

constexpr const char* kUsage =
    "croupier-lab: run declarative peer-sampling experiments\n"
    "\n"
    "spec selection (one sweep point per flag occurrence):\n"
    "  --protocol=NAME[:k=v,...]  protocol for the shared scenario; repeat\n"
    "                             to sweep several samplers (croupier,\n"
    "                             cyclon, gozar, nylon, arrg)\n"
    "  --spec=\"k=v k=v ...\"       full ExperimentSpec string; repeat to\n"
    "                             sweep (exclusive with scenario flags)\n"
    "scenario (shared by every --protocol point):\n"
    "  --nodes=N                  population size (default 1000)\n"
    "  --ratio=R                  public fraction omega (default 0.2)\n"
    "  --join=poisson|fixed|instant   join process (default poisson)\n"
    "  --join-public-ms=MS --join-private-ms=MS   inter-arrival times\n"
    "  --step-publics=N --step-privates=N   second join wave sizes\n"
    "  --step-at=S --step-every-ms=MS        wave start / interval\n"
    "  --flash=at:S,publics:N,privates:N,over:S   flash crowd: a join\n"
    "                             surge ramping up then down inside the\n"
    "                             window (e.g. at:120,publics:500,\n"
    "                             privates:125,over:10)\n"
    "  --churn=F                  fraction replaced per round (default 0)\n"
    "  --churn-at=S               churn start (default 61)\n"
    "  --catastrophe=F            fraction crashing at one instant\n"
    "  --catastrophe-at=S         crash time (default 60)\n"
    "  --failure=at:S,frac:F,corr:C   correlated failure: frac of the\n"
    "                             system crashes as one cohort; corr is\n"
    "                             uniform|region|public|private\n"
    "                             (region = a contiguous latency\n"
    "                             neighbourhood around a random\n"
    "                             epicenter)\n"
    "  --eclipse=target:N,at:S,period:S   eclipse attack: every period,\n"
    "                             every node the target points at is\n"
    "                             crashed and replaced, starving the\n"
    "                             target of honest links\n"
    "  --natflap=frac:F,at:S,period:S   NAT flapping: frac of nodes flip\n"
    "                             NAT class each period and flip back the\n"
    "                             next, invalidating relay/RVP state\n"
    "  --adversary=hubs:N         N public joiners run the self-promoting\n"
    "                             hub shim instead of the honest sampler\n"
    "  --loss=P | --loss=pub-pub:P,priv-any:P,...,after:S\n"
    "                             uniform or per-class-pair message loss\n"
    "                             (pairs are sender-receiver with `any`\n"
    "                             wildcards; after delays activation)\n"
    "  --mtu=N                    datagram payload limit in bytes; larger\n"
    "                             messages split into fragments, each its\n"
    "                             own loss roll (0 = off, default)\n"
    "  --bandwidth=BPS | --bandwidth=rate:BPS,burst:BYTES\n"
    "                             per-node send cap (token bucket, bytes/\n"
    "                             second); queueing delay when saturated\n"
    "                             inflates delivery latency\n"
    "  --fec=R | --fec=repair:R,rate:X\n"
    "                             rateless repair fragments appended per\n"
    "                             fragmented message (fixed count plus\n"
    "                             ceil(rate*k)); requires --mtu\n"
    "  --skew=S                   clock skew fraction (default 0.01)\n"
    "  --private-round-scale=X    slow private rounds by X (default 1)\n"
    "  --latency=king|constant|coordinate   latency model (default king)\n"
    "  --latency-ms=MS            constant-latency value (default 50)\n"
    "  --round-ms=MS              gossip round period (default 1000)\n"
    "  --natid                    joiners run the NAT-ID protocol\n"
    "  --duration=S               horizon in seconds (default 200)\n"
    "  --record=estimation|graph|graph-sampled|randomness\n"
    "                             what to record (default estimation);\n"
    "                             graph-sampled runs the O(sample)\n"
    "                             streaming estimators for worlds too\n"
    "                             large to snapshot; randomness runs the\n"
    "                             statistical sampler audit (in-degree\n"
    "                             chi-square z, lag-1 repeat ratio,\n"
    "                             public-selection bias)\n"
    "  --record-every=S           sampling interval (default 1 / 10)\n"
    "harness:\n"
    "  --runs=N --seed=S --jobs=N --csv=PATH   as in the fig benches;\n"
    "                             with --runs>1 series rows gain a stddev\n"
    "                             column and the CSV gains `spread` rows\n"
    "  --world-jobs=N             workers inside each trial World (the\n"
    "                             round-synchronous parallel engine);\n"
    "                             output is byte-identical for every N\n"
    "  --print-spec               print canonical spec strings and exit\n"
    "\n"
    "Per sweep point, elapsed wall-clock, the effective parallelism\n"
    "(concurrent trials x world shards), and resident memory are\n"
    "reported on stderr, so speedups and footprints are observable\n"
    "without external tooling.\n";

struct LabFlags {
  std::vector<std::string> protocols;
  std::vector<std::string> raw_specs;
  std::vector<std::pair<std::string, std::string>> scenario;  // key, value
  bool print_spec = false;

  /// BenchArgs extra-flag hook: true when `arg` is a lab flag.
  bool consume(const std::string& arg) {
    if (arg == "--help") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    if (arg == "--fast") {
      // The fig benches shrink their hard-coded scale under --fast; the
      // lab's scale is explicit, so accepting it silently would be the
      // same trap the unknown-flag warning exists to close.
      std::fprintf(stderr,
                   "warning: croupier-lab has no --fast mode; set "
                   "--nodes/--duration explicitly (flag ignored)\n");
      return true;
    }
    if (arg == "--print-spec") {
      print_spec = true;
      return true;
    }
    if (arg == "--natid") {
      scenario.emplace_back("natid", "1");
      return true;
    }
    if (arg.rfind("--protocol=", 0) == 0) {
      protocols.push_back(arg.substr(11));
      return true;
    }
    if (arg.rfind("--spec=", 0) == 0) {
      raw_specs.push_back(arg.substr(7));
      return true;
    }
    // Every other spec key is a scenario flag, --KEY=VALUE.
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos &&
        run::ExperimentSpec::has_key(arg.substr(2, eq - 2))) {
      scenario.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
      return true;
    }
    return false;
  }
};

/// The sweep: one ExperimentSpec per point, built either from --spec
/// strings or from the shared scenario flags times the protocol list.
std::vector<run::ExperimentSpec> build_specs(const LabFlags& flags) {
  std::vector<run::ExperimentSpec> specs;
  if (!flags.raw_specs.empty()) {
    if (!flags.protocols.empty() || !flags.scenario.empty()) {
      std::fprintf(stderr,
                   "error: --spec is exclusive with --protocol and the "
                   "scenario flags\n");
      std::exit(1);
    }
    for (const auto& raw : flags.raw_specs) {
      specs.push_back(run::ExperimentSpec::parse(raw));
    }
    return specs;
  }

  // Scenario flags reuse the ExperimentSpec string syntax key for key, so
  // the base spec is just their concatenation.
  std::string base_text;
  for (const auto& [key, value] : flags.scenario) {
    base_text += key + "=" + value + " ";
  }
  const auto protocols = flags.protocols.empty()
                             ? std::vector<std::string>{"croupier"}
                             : flags.protocols;
  for (const auto& protocol : protocols) {
    specs.push_back(
        run::ExperimentSpec::parse(base_text + "protocol=" + protocol));
  }
  return specs;
}

/// One series column of the graph, graph-sampled or randomness record
/// kind: its block-name suffix, the recorder field it reads, its y
/// format, and, when `final_key` is set, its entry in the summary line.
template <typename Point>
struct Column {
  const char* name;
  double Point::*field;
  const char* y_fmt;
  const char* final_key = nullptr;
  const char* final_fmt = nullptr;
};

using GraphPoint = run::GraphStatsPoint;
using SampledPoint = metrics::StreamingGraphStats;
using AuditPoint = metrics::RandomnessPoint;

constexpr Column<GraphPoint> kGraphColumns[] = {
    {"avg-path-length", &GraphPoint::avg_path_length, "%.4f", "apl", "%.3f"},
    {"clustering-coefficient", &GraphPoint::clustering_coefficient, "%.5f",
     "cc", "%.4f"},
};
/// graph-sampled: the streaming estimators add two columns the exact
/// recorder cannot afford at scale.
constexpr Column<SampledPoint> kSampledColumns[] = {
    {"avg-path-length", &SampledPoint::avg_path_length, "%.4f", "apl",
     "%.3f"},
    {"clustering-coefficient", &SampledPoint::clustering_coefficient, "%.5f",
     "cc", "%.4f"},
    {"in-degree-cv", &SampledPoint::in_degree_cv, "%.4f"},
    {"largest-component", &SampledPoint::largest_component_fraction, "%.4f",
     "largest-component", "%.4f"},
};
/// randomness: the statistical audit series — the three normalized
/// statistics whose honest-case expectations are known in closed form
/// (chi2 z ~ 0, repeat ratio ~ 1, bias ratio ~ 1).
constexpr Column<AuditPoint> kRandomnessColumns[] = {
    {"indegree-chi2-z", &AuditPoint::chi2_z, "%.4f", "chi2-z", "%.3f"},
    {"repeat-ratio", &AuditPoint::repeat_ratio, "%.4f", "repeat-ratio",
     "%.4f"},
    {"bias-ratio", &AuditPoint::bias_ratio, "%.4f", "bias-ratio", "%.4f"},
};

/// One trial's recorded columns, the time axis first.
using ColumnSeries = std::vector<std::vector<double>>;

template <typename Point, std::size_t N>
ColumnSeries to_columns(const std::vector<Point>& points,
                        const Column<Point> (&columns)[N]) {
  ColumnSeries out(N + 1);
  for (const auto& p : points) {
    out[0].push_back(p.t_seconds);
    for (std::size_t c = 0; c < N; ++c) {
      out[c + 1].push_back(p.*columns[c].field);
    }
  }
  return out;
}

/// One finished trial: its recorded series, then what the stderr timing
/// report reads.
template <typename Series>
struct LabTrial {
  Series series;
  net::Network::DropStats drops;
  double seconds = 0.0;
  // Sampled while the trial's World is alive. Trials of other points run
  // beside it under --jobs, so this bounds the point's own footprint from
  // above: tight when points run alone, still the number that answers
  // "did this sweep fit in memory".
  std::uint64_t rss = 0;
};

/// Per-point wall-clock, memory and drop accounting, reported on stderr so
/// the determinism gate (which byte-compares stdout and CSV across --jobs
/// / --world-jobs) never sees it.
template <typename Series>
void report_timing(const std::vector<std::string>& labels,
                   const std::vector<std::vector<LabTrial<Series>>>& grid,
                   const bench::BenchArgs& args, double elapsed) {
  using Drops = net::Network::DropStats;
  const std::size_t shards = std::max<std::size_t>(1, args.world_jobs);
  // ru_maxrss and the VmRSS sampled at each trial's end are both lower
  // bounds of the process's true peak, and either can read the higher,
  // so the total line prints the larger.
  std::uint64_t peak_rss = exp::peak_rss_bytes();
  for (std::size_t p = 0; p < labels.size(); ++p) {
    double wall_sum = 0.0;
    double wall_max = 0.0;
    std::uint64_t rss_max = 0;
    for (const auto& trial : grid[p]) {
      wall_sum += trial.seconds;
      wall_max = std::max(wall_max, trial.seconds);
      rss_max = std::max(rss_max, trial.rss);
    }
    peak_rss = std::max(peak_rss, rss_max);
    const auto sum = [&](std::uint64_t Drops::*field) {
      unsigned long long total = 0;
      for (const auto& trial : grid[p]) total += trial.drops.*field;
      return total;
    };
    std::fprintf(stderr,
                 "# timing %s: trials=%zu wall-sum=%.2fs wall-max=%.2fs "
                 "rss-max=%.1fMiB "
                 "drop-bytes=loss:%llu,nat:%llu,dead:%llu "
                 "frags=sent:%llu,lost:%llu,reassembled:%llu,expired:%llu "
                 "effective-parallelism=%zu "
                 "(%zu trials x %zu world shards)\n",
                 labels[p].c_str(), grid[p].size(), wall_sum, wall_max,
                 static_cast<double>(rss_max) / (1024.0 * 1024.0),
                 sum(&Drops::loss_bytes), sum(&Drops::nat_filtered_bytes),
                 sum(&Drops::dead_receiver_bytes), sum(&Drops::fragments_sent),
                 sum(&Drops::fragments_lost),
                 sum(&Drops::fragments_reassembled),
                 sum(&Drops::fragments_expired), args.trial_jobs() * shards,
                 args.trial_jobs(), shards);
  }
  std::fprintf(stderr, "# timing total: elapsed=%.2fs peak-rss=%.1fMiB\n",
               elapsed, static_cast<double>(peak_rss) / (1024.0 * 1024.0));
}

/// Emits one point's column series, aggregated over its runs in run
/// order, then the summary line of its final values.
template <typename Point, std::size_t N>
void emit_columns(exp::ResultSink& sink, const std::string& label,
                  const std::vector<LabTrial<ColumnSeries>>& runs,
                  const Column<Point> (&columns)[N]) {
  const std::string block = "summary " + label;
  std::string summary = block + ":";
  std::vector<std::pair<std::string, double>> finals;
  for (std::size_t c = 0; c < N; ++c) {
    exp::SeriesAccum acc;
    for (const auto& run : runs) acc.add(run.series[c + 1]);
    const std::vector<double> mean = acc.means();
    const std::vector<double>& first_t = runs.front().series[0];
    const std::vector<double> t(
        first_t.begin(),
        first_t.begin() + static_cast<std::ptrdiff_t>(mean.size()));
    bench::emit_series(sink, label + " " + columns[c].name, t, mean,
                       acc.stddevs(), runs.size(), "%.0f", columns[c].y_fmt);
    if (columns[c].final_key == nullptr) continue;
    const double last = mean.empty() ? 0.0 : mean.back();
    summary += std::string(" final ") + columns[c].final_key + "=" +
               exp::strf(columns[c].final_fmt, last);
    finals.emplace_back(std::string("final ") + columns[c].final_key, last);
  }
  sink.comment(summary);
  sink.blank();
  for (const auto& [key, value] : finals) sink.value(block, key, value);
}

}  // namespace

int main(int argc, char** argv) {
  LabFlags flags;
  const auto args = bench::BenchArgs::parse(
      argc, argv, [&flags](const std::string& a) { return flags.consume(a); });

  std::vector<run::ExperimentSpec> specs;
  try {
    specs = build_specs(flags);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (flags.print_spec) {
    for (const auto& spec : specs) {
      std::printf("%s\n", spec.to_string().c_str());
    }
    return 0;
  }
  for (const auto& spec : specs) {
    if (spec.record == run::ExperimentSpec::RecordKind::None) {
      std::fprintf(stderr,
                   "error: record=none records nothing to report; use "
                   "record=estimation, record=graph, record=graph-sampled, "
                   "or record=randomness\n");
      return 1;
    }
    if (spec.record != specs[0].record) {
      std::fprintf(stderr,
                   "error: every spec of one sweep must record the same "
                   "kind\n");
      return 1;
    }
  }

  // Series labels default to the protocol spec; sweep points that share
  // one (several --spec strings varying only the scenario) are suffixed
  // with their point index so no two output blocks collide.
  std::vector<std::string> labels;
  labels.reserve(specs.size());
  for (const auto& spec : specs) labels.push_back(spec.protocol);
  const std::vector<std::string> plain = labels;
  for (std::size_t p = 0; p < labels.size(); ++p) {
    std::size_t same = 0;
    for (const auto& label : plain) same += label == plain[p] ? 1 : 0;
    if (same > 1) labels[p] += exp::strf(" #%zu", p);
  }

  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf("croupier-lab: %zu spec(s), %zu run(s), seed %llu",
                         specs.size(), args.runs,
                         static_cast<unsigned long long>(args.seed)));
  for (const auto& spec : specs) sink.comment(spec.to_string());
  sink.blank();

  // Runs the sweep's trial grid, hands each point's runs to `emit`, then
  // reports timing. `record(experiment)` extracts a finished trial's
  // series; wall-clock and RSS reach stderr only, never the sink.
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto sweep = [&](auto record, auto emit) {
    const auto grid = bench::run_trial_grid(
        args, specs.size(), [&](std::size_t p, std::uint64_t seed) {
          const auto start = std::chrono::steady_clock::now();
          run::Experiment experiment(specs[p], seed, args.world_jobs);
          experiment.run();
          auto series = record(std::as_const(experiment));
          const std::chrono::duration<double> took =
              std::chrono::steady_clock::now() - start;
          return LabTrial<decltype(series)>{
              std::move(series), experiment.world().network().drops(),
              took.count(), exp::current_rss_bytes()};
        });
    for (std::size_t p = 0; p < specs.size(); ++p) emit(labels[p], grid[p]);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - sweep_start;
    report_timing(labels, grid, args, elapsed.count());
  };
  const auto run_columns = [&](const auto& columns, auto series_of) {
    sweep(
        [&](const run::Experiment& e) {
          return to_columns(series_of(e), columns);
        },
        [&](const std::string& label, const auto& runs) {
          emit_columns(sink, label, runs, columns);
        });
  };
  switch (specs[0].record) {
    case run::ExperimentSpec::RecordKind::Graph:
      run_columns(kGraphColumns, [](const run::Experiment& e) -> const auto& {
        return e.graph_stats()->series();
      });
      break;
    case run::ExperimentSpec::RecordKind::GraphSampled:
      run_columns(kSampledColumns,
                  [](const run::Experiment& e) -> const auto& {
                    return e.graph_sampled()->series();
                  });
      break;
    case run::ExperimentSpec::RecordKind::Randomness:
      run_columns(kRandomnessColumns,
                  [](const run::Experiment& e) -> const auto& {
                    return e.randomness()->series();
                  });
      break;
    default:
      sweep(
          [](const run::Experiment& e) {
            return bench::to_series(*e.estimation());
          },
          [&](const std::string& label, const auto& runs) {
            bench::emit_estimation(
                sink, label + " avg-error", label + " max-error",
                "summary " + label,
                bench::aggregate(runs,
                                 &LabTrial<bench::EstimationSeries>::series),
                args.runs);
          });
  }
  return 0;
}
