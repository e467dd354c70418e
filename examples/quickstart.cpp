// Quickstart: stand up a NATted network, run Croupier on every node, and
// consume the peer sampling service.
//
//   $ ./quickstart
//
// Walks through the whole public API surface:
//  1. describe the experiment declaratively (protocol by registry name
//     with key=value overrides, population, workload, horizon);
//  2. materialize it — Experiment builds the World (simulator + NATted
//     network + bootstrap oracle) and schedules the join processes;
//  3. run simulated time;
//  4. draw uniform random samples at a node and inspect the ratio
//     estimate the sampling relies on.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/croupier.hpp"
#include "runtime/spec.hpp"

int main() {
  using namespace croupier;

  // 1. The whole experiment as data. Protocol options ride in the
  //    registry spec string (paper defaults: view 10, shuffle 5, 1 s
  //    rounds, alpha=25, gamma=50); population is 100 public + 400
  //    private nodes (omega = 0.2) joining as two Poisson processes like
  //    the paper's experiments. The same spec round-trips through text:
  //    run::ExperimentSpec::parse(spec.to_string()) == spec.
  const run::ExperimentSpec spec{
      .protocol = "croupier:alpha=25,gamma=50", .nodes = 500, .ratio = 0.2,
      .join_public_ms = 50, .join_private_ms = 13, .duration_s = 120,
      .record = run::ExperimentSpec::RecordKind::None};
  std::printf("spec: %s\n\n", spec.to_string().c_str());

  // 2. Materialize: deterministic simulator + network with King-like
  //    latencies, one Croupier instance per node.
  run::Experiment experiment(spec, /*seed=*/42);
  run::World& world = experiment.world();

  // 3. Let the gossip run for two simulated minutes.
  experiment.run();

  std::printf("nodes alive:        %zu\n", world.alive_count());
  std::printf("true ratio omega:   %.3f\n", world.true_ratio());

  // 4. Consume the PSS at an arbitrary node.
  const net::NodeId me = world.alive_ids().front();
  auto* sampler = world.sampler(me);
  const auto* node = dynamic_cast<const core::Croupier*>(sampler);

  std::printf("node %u estimate:   %.3f\n", me,
              sampler->ratio_estimate().value_or(-1.0));
  std::printf("public view:        %zu entries\n",
              node->public_view().size());
  std::printf("private view:       %zu entries\n",
              node->private_view().size());

  std::printf("ten uniform samples drawn at node %u:\n", me);
  for (int i = 0; i < 10; ++i) {
    const auto peer = sampler->sample();
    if (!peer.has_value()) continue;
    std::printf("  node %-6u (%s, descriptor age %u rounds)\n", peer->id,
                net::to_cstring(peer->nat_type), peer->age);
  }

  // Population-wide estimation quality, the paper's headline metric.
  double worst = 0;
  double sum = 0;
  const auto estimates = world.ratio_estimates();
  for (double e : estimates) {
    const double err = std::abs(e - world.true_ratio());
    worst = std::max(worst, err);
    sum += err;
  }
  std::printf("avg estimation err: %.4f over %zu nodes (max %.4f)\n",
              sum / static_cast<double>(estimates.size()), estimates.size(),
              worst);
  return 0;
}
