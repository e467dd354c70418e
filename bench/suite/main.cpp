// suite_workload: one run of one experiment spec, as the benchmark suite
// measures it. bench/suite/run.py starts it as a fresh child process per
// repetition, so peak RSS is the run's own.
//
//   suite_workload --spec="protocol=croupier nodes=2000 ..." --seed=N
//                  --world-jobs=J --mode=plain|traced
//
// plain   the production path: run::Experiment(spec, seed, J).run(),
//         timing the constructor (set-up) and run() separately. The one
//         construction is the cold one a user's process pays: repeating
//         it in the same process would time warm, reused memory instead.
// traced  the replica in traced_run.hpp, which times each layer.
//
// Prints one JSON object on stdout: digest, sanity checks and, per mode,
// the timings or the per-layer metrics. Exits 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "exp/memory.hpp"
#include "outputs.hpp"
#include "runtime/spec.hpp"
#include "timing.hpp"
#include "traced_run.hpp"

namespace {

using croupier::run::Experiment;
using croupier::run::ExperimentSpec;
namespace suite = croupier::suite;

struct Args {
  std::string spec;
  std::uint64_t seed = 1;
  std::size_t world_jobs = 1;
  bool traced = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_spec = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&a](const char* key) -> const char* {
      const std::string k = std::string(key) + "=";
      return a.rfind(k, 0) == 0 ? a.c_str() + k.size() : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--spec")) {
      args.spec = v;
      have_spec = true;
    } else if (const char* v = value("--seed")) {
      args.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
    } else if (const char* v = value("--world-jobs")) {
      args.world_jobs = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0' || args.world_jobs == 0) return false;
    } else if (const char* v = value("--mode")) {
      const std::string mode = v;
      if (mode != "plain" && mode != "traced") return false;
      args.traced = mode == "traced";
    } else {
      return false;
    }
  }
  return have_spec;
}

void print_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

void print_object(const char* key, const std::map<std::string, double>& m) {
  std::printf(", \"%s\": {", key);
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\": ", first ? "" : ", ", name.c_str());
    print_number(v);
    first = false;
  }
  std::printf("}");
}

int run_plain(const ExperimentSpec& spec, const Args& args) {
  const std::int64_t t0 = suite::suite_clock_ns();
  Experiment exp(spec, args.seed, args.world_jobs);
  const std::int64_t t1 = suite::suite_clock_ns();
  exp.run();
  const std::int64_t t2 = suite::suite_clock_ns();
  const double setup_s = static_cast<double>(t1 - t0) / 1e9;
  const double run_s = static_cast<double>(t2 - t1) / 1e9;

  suite::RunOutputs out;
  out.duration_s = spec.duration_s;
  if (exp.estimation() != nullptr) out.estimation = &exp.estimation()->series();
  if (exp.graph_sampled() != nullptr) {
    out.graph_sampled = &exp.graph_sampled()->series();
  }
  if (exp.randomness() != nullptr) out.randomness = &exp.randomness()->series();
  out.events = exp.world().simulator().events_processed();
  out.drops = exp.world().network().drops();
  out.scenario = exp.scenario_stats();

  std::printf("{\"mode\": \"plain\", \"digest\": \"%s\", \"setup_s\": ",
              suite::digest_of(out).c_str());
  print_number(setup_s);
  std::printf(", \"run_s\": ");
  print_number(run_s);
  std::printf(", \"peak_rss_mib\": ");
  print_number(static_cast<double>(croupier::exp::peak_rss_bytes()) /
               (1024.0 * 1024.0));
  print_object("checks", suite::checks_of(out));
  std::printf("}\n");
  return 0;
}

int run_traced(const ExperimentSpec& spec, const Args& args) {
  const suite::TracedResult r =
      suite::run_traced(spec, args.seed, args.world_jobs);
  std::printf("{\"mode\": \"traced\", \"digest\": \"%s\"", r.digest.c_str());
  print_object("checks", r.checks);
  print_object("layers", r.layers);
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: suite_workload --spec=SPEC [--seed=N] "
                 "[--world-jobs=J] [--mode=plain|traced]\n");
    return 2;
  }
  try {
    const ExperimentSpec spec = ExperimentSpec::parse(args.spec);
    return args.traced ? run_traced(spec, args) : run_plain(spec, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "suite_workload: %s\n", e.what());
    return 2;
  }
}
