// Micro-benchmarks (google-benchmark) for the hot components: simulator
// event throughput, RNG, wire codec, view operations, estimator rounds,
// NAT table lookups, graph metrics at experiment scale, and end-to-end
// gossip-round throughput per protocol (the BENCH_micro.json baseline).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <numeric>

#include "core/croupier.hpp"
#include "core/estimator.hpp"
#include "metrics/graph.hpp"
#include "net/nat.hpp"
#include "net/packet.hpp"
#include "pss/view.hpp"
#include "runtime/registry.hpp"
#include "runtime/world.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace croupier;

// A hold model of the event core: every fired event schedules one
// successor at a random delay, so the queue keeps its size while pushes
// land all over the queue. Each closure captures a shared_ptr and three
// ints, like a message delivery.
struct HoldModel {
  sim::Simulator simulator;
  sim::RngStream rng{1};
  std::shared_ptr<int> message = std::make_shared<int>(0);

  void schedule(std::uint32_t from, std::uint32_t to, std::uint32_t hops) {
    simulator.schedule_after(1 + rng.uniform(sim::msec(100)),
                             [this, msg = message, from, to, hops] {
                               benchmark::DoNotOptimize(*msg);
                               schedule(to, from, hops + 1);
                             });
  }
};

// One iteration is one event; range(0) events stay pending. mega-parallel
// holds about one round timer per node (10k) plus the messages in flight.
//
// This bench cannot rank queue designs. The closure (a shared_ptr and
// three ints) overflows std::function's local buffer, so every event also
// times one malloc and one free, and a pending set this small keeps the
// queue hot in cache. Two radix queues with the same slab-and-key layout
// read 74 and 47 ns at /1000 against the binary heap's 67 ns, and both
// ran bench/suite's lossy-packets about a tenth faster; rank queues there.
void BM_SimulatorEventThroughput(benchmark::State& state) {
  HoldModel model;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    model.schedule(static_cast<std::uint32_t>(i), 0, 0);
  }
  for (auto _ : state) model.simulator.step();
  benchmark::DoNotOptimize(model.simulator.events_processed());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorEventThroughput)->Arg(1000)->Arg(10000);

void BM_RngUniform(benchmark::State& state) {
  sim::RngStream rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc += rng.uniform(1000);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniform);

void BM_RngSample(benchmark::State& state) {
  sim::RngStream rng(1);
  std::vector<int> pool(static_cast<std::size_t>(state.range(0)));
  std::iota(pool.begin(), pool.end(), 0);
  for (auto _ : state) {
    auto s = rng.sample(std::span<const int>(pool), 5);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_RngSample)->Arg(10)->Arg(100);

void BM_ShuffleMessageEncode(benchmark::State& state) {
  core::CroupierShuffleReq req;
  req.sender = pss::NodeDescriptor{1, net::NatType::Public, 0};
  for (net::NodeId i = 0; i < 3; ++i) {
    req.pub.push_back({10 + i, net::NatType::Public, 1});
  }
  for (net::NodeId i = 0; i < 2; ++i) {
    req.pri.push_back({20 + i, net::NatType::Private, 1});
  }
  for (net::NodeId i = 0; i < 10; ++i) {
    req.estimates.push_back({i, 10, 40, 1});
  }
  for (auto _ : state) {
    wire::Writer w;
    req.encode(w);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_ShuffleMessageEncode);

void BM_FragmentRoundTrip(benchmark::State& state) {
  // Split + reassemble a message of `range` bytes over a small MTU,
  // with two FEC repair fragments (the ablation_loss packet shape);
  // feeding the repairs first forces the GF(256) decode path.
  net::PacketConfig cfg;
  cfg.mtu = 64;
  cfg.fec_repair = 2;
  const net::Fragmenter fragmenter(cfg);
  std::vector<std::byte> message(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::byte>(i * 31 + 7);
  }
  for (auto _ : state) {
    // The sender's one buffer: the message, then its padding and repair
    // rows laid out in place.
    std::vector<std::byte> encoded;
    encoded.reserve(fragmenter.buffer_size(message.size()));
    encoded.assign(message.begin(), message.end());
    const auto frags = fragmenter.split(std::move(encoded));
    net::FragmentAssembly assembly(frags.header(frags.count() - 1));
    for (std::size_t i = frags.count(); i-- > 0;) {
      if (assembly.add(frags.header(i), frags.payload(i))) break;
    }
    auto bytes = assembly.bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(message.size()));
}
BENCHMARK(BM_FragmentRoundTrip)->Arg(200)->Arg(1400);

void BM_ShuffleMessageDecode(benchmark::State& state) {
  core::CroupierShuffleReq req;
  req.sender = pss::NodeDescriptor{1, net::NatType::Public, 0};
  for (net::NodeId i = 0; i < 5; ++i) {
    req.pub.push_back({10 + i, net::NatType::Public, 1});
    req.estimates.push_back({i, 10, 40, 1});
  }
  wire::Writer w;
  req.encode(w);
  for (auto _ : state) {
    wire::Reader r(w.data());
    auto m = core::CroupierShuffleReq::decode(r);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_ShuffleMessageDecode);

void BM_ViewMergeSwapper(benchmark::State& state) {
  sim::RngStream rng(1);
  for (auto _ : state) {
    pss::PartialView<pss::NodeDescriptor> view(10);
    for (net::NodeId i = 0; i < 10; ++i) {
      view.add_if_room({i, net::NatType::Public, static_cast<std::uint16_t>(i)});
    }
    const auto sent = view.random_subset(5, rng);
    std::vector<pss::NodeDescriptor> recv;
    for (net::NodeId i = 100; i < 105; ++i) {
      recv.push_back({i, net::NatType::Public, 0});
    }
    view.merge_swapper(sent, recv, 999);
    benchmark::DoNotOptimize(view.size());
  }
}
BENCHMARK(BM_ViewMergeSwapper);

// One public node-round of the estimator with a cache of Arg entries
// (about 215 per node on the 1500-node paper-steady workload, 420 on the
// 10k-node mega-parallel one): begin_round, the two shares a shuffle
// request and response carry, two 10-entry merges, one estimate. The
// merges refresh prefilled origins at ages 0-5, so the cache stays near
// its size under γ = 50.
void BM_EstimatorRound(benchmark::State& state) {
  const auto cache_size = static_cast<net::NodeId>(state.range(0));
  core::RatioEstimator est(1, net::NatType::Public, {25, 50, 10});
  sim::RngStream rng(1);
  std::vector<core::EstimateEntry> prefill;
  for (net::NodeId i = 0; i < cache_size; ++i) {
    prefill.push_back({i + 2, 10, 40, 0});
  }
  est.merge(prefill);
  std::vector<std::vector<core::EstimateEntry>> batches(256);
  for (auto& batch : batches) {
    for (int i = 0; i < 10; ++i) {
      batch.push_back({static_cast<net::NodeId>(2 + rng.uniform(cache_size)),
                       10, 40, static_cast<std::uint8_t>(rng.uniform(6))});
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    est.count_request(net::NatType::Private);
    est.count_request(net::NatType::Public);
    est.begin_round();
    benchmark::DoNotOptimize(est.share(rng));
    benchmark::DoNotOptimize(est.share(rng));
    est.merge(batches[next++ % batches.size()]);
    est.merge(batches[next++ % batches.size()]);
    benchmark::DoNotOptimize(est.estimate());
  }
  state.counters["cached"] = static_cast<double>(est.cached_count());
}
BENCHMARK(BM_EstimatorRound)->Arg(215)->Arg(420);

void BM_NatBoxLookup(benchmark::State& state) {
  net::NatBox nat(net::NatConfig::natted());
  for (net::NodeId i = 0; i < 64; ++i) nat.on_outbound(sim::sec(i), i);
  std::size_t hits = 0;
  net::NodeId peer = 0;
  for (auto _ : state) {
    hits += nat.allows_inbound(sim::sec(70), peer++ % 128) ? 1 : 0;
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_NatBoxLookup);

// One outbound refresh and one inbound check per iteration on a private
// box holding range(0) live mappings: 31 and 135 are the largest boxes
// the suite's paper-steady and churn-relay workloads hold.
void BM_NatBox(benchmark::State& state) {
  const auto live = static_cast<net::NodeId>(state.range(0));
  net::NatBox nat(net::NatConfig::natted());
  for (net::NodeId i = 0; i < live; ++i) nat.on_outbound(sim::sec(1), 5 * i);
  std::size_t hits = 0;
  net::NodeId k = 0;
  for (auto _ : state) {
    nat.on_outbound(sim::sec(2), 5 * (k % live));
    hits += nat.allows_inbound(sim::sec(2), 5 * ((7 * k + 3) % live)) ? 1 : 0;
    ++k;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NatBox)->Arg(31)->Arg(135);

metrics::OverlayGraph random_overlay(std::size_t n, std::size_t degree) {
  sim::RngStream rng(7);
  std::vector<std::pair<net::NodeId, std::vector<net::NodeId>>> adj;
  for (net::NodeId i = 0; i < n; ++i) {
    std::vector<net::NodeId> nbrs;
    for (std::size_t d = 0; d < degree; ++d) {
      nbrs.push_back(static_cast<net::NodeId>(rng.uniform(n)));
    }
    adj.emplace_back(i, std::move(nbrs));
  }
  return metrics::OverlayGraph::build(adj);
}

void BM_GraphPathLengthSampled(benchmark::State& state) {
  const auto g = random_overlay(1000, 10);
  sim::RngStream rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.avg_path_length(rng, 128));
  }
}
BENCHMARK(BM_GraphPathLengthSampled);

void BM_GraphClustering(benchmark::State& state) {
  const auto g = random_overlay(1000, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.avg_clustering_coefficient());
  }
}
BENCHMARK(BM_GraphClustering);

void BM_GraphLargestComponent(benchmark::State& state) {
  const auto g = random_overlay(1000, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.largest_component());
  }
}
BENCHMARK(BM_GraphLargestComponent);

std::uint64_t total_rounds(const run::World& world) {
  std::uint64_t total = 0;
  for (const auto id : world.alive_ids()) total += world.rounds_of(id);
  return total;
}

// End-to-end protocol throughput: a 128-node world (paper's 80% private
// ratio) advanced one simulated second per iteration. items/sec is node
// gossip rounds executed per wall-clock second — the cross-protocol
// "ops/sec" number scripts/run_benches.sh extracts into BENCH_micro.json.
void BM_ProtocolRounds(benchmark::State& state, run::ProtocolFactory factory) {
  run::World::Config cfg;
  cfg.seed = 1;
  cfg.latency = run::World::LatencyKind::Constant;
  cfg.constant_latency = sim::msec(20);
  run::World world(cfg, std::move(factory));
  for (int i = 0; i < 26; ++i) world.spawn(net::NatConfig::open());
  for (int i = 0; i < 102; ++i) world.spawn(net::NatConfig::natted());
  auto t = sim::sec(5);  // warm-up past the join transient
  world.simulator().run_until(t);
  const auto before = total_rounds(world);
  for (auto _ : state) {
    t += sim::sec(1);
    world.simulator().run_until(t);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(total_rounds(world) - before));
}

// Paper-default configurations come straight from the registry names.
BENCHMARK_CAPTURE(BM_ProtocolRounds, Croupier,
                  run::ProtocolRegistry::instance().make("croupier"));
BENCHMARK_CAPTURE(BM_ProtocolRounds, Cyclon,
                  run::ProtocolRegistry::instance().make("cyclon"));
BENCHMARK_CAPTURE(BM_ProtocolRounds, Gozar,
                  run::ProtocolRegistry::instance().make("gozar"));
BENCHMARK_CAPTURE(BM_ProtocolRounds, Nylon,
                  run::ProtocolRegistry::instance().make("nylon"));
BENCHMARK_CAPTURE(BM_ProtocolRounds, Arrg,
                  run::ProtocolRegistry::instance().make("arrg"));

}  // namespace

BENCHMARK_MAIN();
