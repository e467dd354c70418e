// Ablation: what goes wrong *without* NAT-awareness — the paper's
// motivation (§I-II, citing [9] and [15]).
//
// Runs NAT-oblivious Cyclon and ARRG on populations with a growing
// private fraction and reports: overlay connectivity, the in-degree
// imbalance between public and private nodes (sampling bias), and the
// fraction of failed exchanges. Croupier at 80% private is printed as
// the reference row.
#include <iterator>

#include "bench_common.hpp"

namespace {

using namespace croupier;

struct TrialResult {
  double cluster = 0;
  double indeg_pub = 0;
  double indeg_priv = 0;
  double nat_drop_share = 0;  // NAT-filtered / delivered+filtered
};

TrialResult measure(const run::ExperimentSpec& spec, std::uint64_t seed,
                    std::size_t world_jobs) {
  run::Experiment experiment(spec, seed, world_jobs);
  experiment.run();
  auto& world = experiment.world();

  TrialResult res;
  const auto graph = world.snapshot_overlay();
  res.cluster = graph.largest_component_fraction();
  const auto degrees = graph.in_degrees();
  double pub_sum = 0;
  double priv_sum = 0;
  std::size_t pubs = 0;
  std::size_t privs = 0;
  for (std::size_t i = 0; i < graph.ids().size(); ++i) {
    const auto id = graph.ids()[i];
    if (world.type_of(id) == net::NatType::Public) {
      pub_sum += static_cast<double>(degrees[i]);
      ++pubs;
    } else {
      priv_sum += static_cast<double>(degrees[i]);
      ++privs;
    }
  }
  res.indeg_pub = pubs > 0 ? pub_sum / static_cast<double>(pubs) : 0;
  res.indeg_priv = privs > 0 ? priv_sum / static_cast<double>(privs) : 0;
  const auto& drops = world.network().drops();
  const double total =
      static_cast<double>(drops.delivered + drops.nat_filtered);
  res.nat_drop_share =
      total > 0 ? static_cast<double>(drops.nat_filtered) / total : 0;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 300 : 1000;
  const double duration = args.fast ? 100 : 200;
  const int private_pcts[] = {0, 20, 40, 60, 80};

  // The sweep is (private% x {cyclon, arrg}) plus one Croupier reference
  // point at the hardest setting, flattened into a single trial grid.
  struct Point {
    const char* name;
    int private_pct;
    std::string protocol;
  };
  std::vector<Point> sweep;
  for (int pct : private_pcts) {
    sweep.push_back({"cyclon", pct, "cyclon"});
    sweep.push_back({"arrg", pct, "arrg"});
  }
  sweep.push_back({"croupier", 80, bench::croupier_proto(25, 50)});

  exp::TrialPool pool(args.trial_jobs());
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "ablation: NAT-oblivious PSS on NATted populations; %zu nodes, "
      "%zu run(s)",
      n, args.runs));
  sink.raw(exp::strf("%-10s %10s %10s %11s %12s %12s", "system", "private",
                     "cluster", "indeg(pub)", "indeg(priv)", "nat-drops"));

  const auto grid = bench::run_trial_grid(
      pool, args, sweep.size(), [&](std::size_t p, std::uint64_t seed) {
        const Point& pt = sweep[p];
        return measure(
            {.protocol = pt.protocol, .nodes = n,
             .ratio = 1.0 - static_cast<double>(pt.private_pct) / 100.0,
             .duration_s = duration,
             .record = run::ExperimentSpec::RecordKind::None},
            seed, args.world_jobs);
      });

  for (std::size_t p = 0; p < sweep.size(); ++p) {
    const Point& pt = sweep[p];
    exp::Accum cluster;
    exp::Accum indeg_pub;
    exp::Accum indeg_priv;
    exp::Accum nat_drops;
    for (const auto& res : grid[p]) {
      cluster.add(res.cluster);
      indeg_pub.add(res.indeg_pub);
      indeg_priv.add(res.indeg_priv);
      nat_drops.add(res.nat_drop_share);
    }
    sink.raw(exp::strf("%-10s %9d%% %10.3f %11.2f %12.2f %12.3f", pt.name,
                       pt.private_pct, cluster.mean(), indeg_pub.mean(),
                       indeg_priv.mean(), nat_drops.mean()));
    const std::string block =
        exp::strf("%s private=%d%%", pt.name, pt.private_pct);
    bench::emit_value(sink, block, "cluster", cluster);
    bench::emit_value(sink, block, "indeg-pub", indeg_pub);
    bench::emit_value(sink, block, "indeg-priv", indeg_priv);
    bench::emit_value(sink, block, "nat-drops", nat_drops);
  }
  return 0;
}
