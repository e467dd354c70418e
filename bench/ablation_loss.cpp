// Ablation: message loss and the estimator's third assumption ("no bias
// in message loss between public and private nodes").
//
// Uniform loss keeps the estimate unbiased (both hit counters shrink
// proportionally); this sweep verifies that and also checks overlay
// connectivity under loss. The paper assumes this property; here it is
// measured.
#include <iterator>

#include "bench_common.hpp"

namespace {

using namespace croupier;

struct TrialResult {
  double avg_err = 0;
  double max_err = 0;
  double cluster = 0;
  double apl = 0;
};

/// One trial of the packet section: estimation quality plus the
/// packet layer's own fragment accounting.
struct PacketTrialResult {
  double avg_err = 0;
  double max_err = 0;
  double cluster = 0;
  double frag_sent = 0;
  double frag_lost = 0;
  double frag_expired = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 300 : 1000;
  const double duration = args.fast ? 100 : 200;
  const double losses[] = {0.0, 0.01, 0.05, 0.10, 0.20};

  exp::TrialPool pool(args.trial_jobs());
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "ablation: uniform message loss vs estimation/connectivity; "
      "%zu nodes, %zu run(s)",
      n, args.runs));
  sink.raw(exp::strf("%-8s %12s %12s %14s %12s", "loss", "avg-err",
                     "max-err", "biggest-cluster", "apl"));

  const auto grid = bench::run_trial_grid(
      pool, args, std::size(losses), [&](std::size_t p, std::uint64_t seed) {
        run::Experiment experiment(
            {.protocol = bench::croupier_proto(25, 50), .nodes = n,
             .loss = losses[p], .duration_s = duration},
            seed, args.world_jobs);
        experiment.run();

        TrialResult res;
        res.avg_err = experiment.estimation()->latest().sample.avg_error;
        res.max_err = experiment.estimation()->latest().sample.max_error;
        const auto graph = experiment.world().snapshot_overlay();
        res.cluster = graph.largest_component_fraction();
        // Forked off the trial seed so the APL sampling stream cannot
        // alias the world's own forks.
        sim::RngStream rng = sim::RngStream(seed).fork(0x0A91);
        res.apl = graph.avg_path_length(rng, 128);
        return res;
      });

  for (std::size_t p = 0; p < std::size(losses); ++p) {
    exp::Accum avg_err;
    exp::Accum max_err;
    exp::Accum cluster;
    exp::Accum apl;
    for (const auto& res : grid[p]) {
      avg_err.add(res.avg_err);
      max_err.add(res.max_err);
      cluster.add(res.cluster);
      apl.add(res.apl);
    }
    sink.raw(exp::strf("%-8.2f %12.5f %12.5f %14.3f %12.3f", losses[p],
                       avg_err.mean(), max_err.mean(), cluster.mean(),
                       apl.mean()));
    const std::string block = exp::strf("loss=%.2f", losses[p]);
    bench::emit_value(sink, block, "avg-err", avg_err);
    bench::emit_value(sink, block, "max-err", max_err);
    bench::emit_value(sink, block, "biggest-cluster", cluster);
    bench::emit_value(sink, block, "apl", apl);
  }

  // Packet section: the same loss sweep with the packet layer on and an
  // MTU small enough that every shuffle fragments (k >= 2 datagrams per
  // message, each with its own loss die). A plain fragmented message
  // dies with any of its k fragments — effective message loss
  // 1 - (1-p)^k — where the FEC variant survives any k of k+2, so
  // convergence should hold at rates where plain degrades.
  constexpr std::size_t kMtu = 64;
  constexpr std::uint32_t kRepair = 2;
  const double packet_losses[] = {0.05, 0.10, 0.20};
  const std::uint32_t repairs[] = {0, kRepair};  // plain, fec
  const char* variant_name[] = {"plain", "fec"};
  const std::size_t packet_points =
      std::size(packet_losses) * std::size(repairs);

  sink.blank();
  sink.comment(exp::strf(
      "packet ablation: plain vs FEC fragmentation (mtu=%zu, fec "
      "repair=%u) under per-datagram loss",
      kMtu, kRepair));
  sink.raw(exp::strf("%-8s %-8s %12s %12s %14s %12s %12s %12s", "variant",
                     "loss", "avg-err", "max-err", "biggest-cluster",
                     "frag-sent", "frag-lost", "frag-expired"));

  const auto packet_grid = bench::run_trial_grid(
      pool, args, packet_points, [&](std::size_t p, std::uint64_t seed) {
        const std::size_t v = p / std::size(packet_losses);
        const double loss = packet_losses[p % std::size(packet_losses)];
        run::Experiment experiment(
            {.protocol = bench::croupier_proto(25, 50), .nodes = n,
             .loss = loss, .mtu = kMtu, .fec_repair = repairs[v],
             .duration_s = duration},
            seed, args.world_jobs);
        experiment.run();

        PacketTrialResult res;
        res.avg_err = experiment.estimation()->latest().sample.avg_error;
        res.max_err = experiment.estimation()->latest().sample.max_error;
        res.cluster =
            experiment.world().snapshot_overlay().largest_component_fraction();
        const auto& drops = experiment.world().network().drops();
        res.frag_sent = static_cast<double>(drops.fragments_sent);
        res.frag_lost = static_cast<double>(drops.fragments_lost);
        res.frag_expired = static_cast<double>(drops.fragments_expired);
        return res;
      });

  for (std::size_t p = 0; p < packet_points; ++p) {
    const std::size_t v = p / std::size(packet_losses);
    const double loss = packet_losses[p % std::size(packet_losses)];
    exp::Accum avg_err;
    exp::Accum max_err;
    exp::Accum cluster;
    exp::Accum frag_sent;
    exp::Accum frag_lost;
    exp::Accum frag_expired;
    for (const auto& res : packet_grid[p]) {
      avg_err.add(res.avg_err);
      max_err.add(res.max_err);
      cluster.add(res.cluster);
      frag_sent.add(res.frag_sent);
      frag_lost.add(res.frag_lost);
      frag_expired.add(res.frag_expired);
    }
    sink.raw(exp::strf("%-8s %-8.2f %12.5f %12.5f %14.3f %12.0f %12.0f "
                       "%12.0f",
                       variant_name[v], loss, avg_err.mean(), max_err.mean(),
                       cluster.mean(), frag_sent.mean(), frag_lost.mean(),
                       frag_expired.mean()));
    const std::string block =
        exp::strf("packet %s loss=%.2f", variant_name[v], loss);
    bench::emit_value(sink, block, "avg-err", avg_err);
    bench::emit_value(sink, block, "max-err", max_err);
    bench::emit_value(sink, block, "biggest-cluster", cluster);
    bench::emit_value(sink, block, "frag-sent", frag_sent);
    bench::emit_value(sink, block, "frag-lost", frag_lost);
    bench::emit_value(sink, block, "frag-expired", frag_expired);
  }
  return 0;
}
