#include "traced_run.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/croupier.hpp"
#include "exp/memory.hpp"
#include "outputs.hpp"
#include "runtime/registry.hpp"
#include "timed_sampler.hpp"
#include "timing.hpp"

namespace croupier::suite {

namespace {

using Spec = run::ExperimentSpec;

// Experiment's unit conversions (file-local in runtime/spec.cpp).
sim::Duration ms_to_duration(double ms) {
  return static_cast<sim::Duration>(std::llround(ms * 1000.0));
}
sim::Duration s_to_duration(double s) {
  return static_cast<sim::Duration>(std::llround(s * 1e6));
}

void require_supported(const Spec& spec) {
  const char* field = nullptr;
  if (spec.join == Spec::JoinKind::Fixed) field = "join=fixed";
  if (spec.step_publics + spec.step_privates > 0) field = "step";
  if (spec.flash_publics + spec.flash_privates > 0) field = "flash";
  if (spec.catastrophe > 0.0) field = "catastrophe";
  if (spec.failure_frac > 0.0) field = "failure";
  if (spec.eclipse_target != 0) field = "eclipse";
  if (spec.natflap_frac > 0.0) field = "natflap";
  if (spec.adversary_hubs > 0) field = "adversary";
  if (spec.natid) field = "natid";
  if (spec.record == Spec::RecordKind::Graph) field = "record=graph";
  if (field != nullptr) {
    throw std::invalid_argument(std::string("traced run does not replicate ") +
                                field);
  }
}

run::World::Config world_config(const Spec& spec, std::uint64_t seed,
                                std::size_t world_jobs) {
  run::World::Config cfg;
  cfg.seed = seed;
  cfg.loss = spec.loss.to_config();
  cfg.packet = spec.packet_config();
  cfg.round_period = ms_to_duration(spec.round_ms);
  cfg.clock_skew = spec.skew;
  cfg.private_round_scale = spec.private_round_scale;
  cfg.latency = spec.latency;
  cfg.constant_latency = ms_to_duration(spec.latency_ms);
  cfg.use_natid_protocol = spec.natid;
  cfg.world_jobs = world_jobs;
  return cfg;
}

/// The spec's recorder as a bench-scheduled serial event: the same public
/// calls at the same cadence as runtime/recorder.cpp, each tick timed.
class ReplicaRecorder {
 public:
  ReplicaRecorder(run::World& world, const Spec& spec)
      : world_(world),
        kind_(spec.record),
        interval_(spec.record_every_s > 0.0
                      ? s_to_duration(spec.record_every_s)
                  : kind_ == Spec::RecordKind::Estimation ? sim::sec(1)
                                                          : sim::sec(10)),
        // The sampled-graph recorder's own RNG fork.
        graph_rng_(world.scenario_rng().fork(0x6EAB)) {}

  void arm() {
    if (kind_ == Spec::RecordKind::None) return;
    kill_epoch_ = world_.kill_count();
    world_.simulator().schedule_at(interval_, [this] { replica_tick(); });
  }

  std::int64_t ns = 0;
  std::uint64_t ticks = 0;
  metrics::ErrorSeries estimation;
  std::vector<metrics::StreamingGraphStats> graph;
  std::vector<metrics::RandomnessPoint> audit;

 private:
  void replica_tick() {
    const std::int64_t t0 = suite_clock_ns();
    const double now_s = sim::to_seconds(world_.simulator().now());
    switch (kind_) {
      case Spec::RecordKind::Estimation: {
        const auto estimates = world_.ratio_estimates(2);
        metrics::ErrorPoint point;
        point.t_seconds = now_s;
        point.sample =
            metrics::estimation_errors(estimates, world_.true_ratio());
        estimation.push_back(point);
        break;
      }
      case Spec::RecordKind::GraphSampled: {
        if (world_.kill_count() != kill_epoch_) {
          kill_epoch_ = world_.kill_count();
          estimator_.reset_accumulators();
        }
        const auto neighbors = [this](net::NodeId id,
                                      std::vector<net::NodeId>& out) {
          const auto* s = world_.sampler(id);
          if (s == nullptr) return false;
          out = s->out_neighbors();
          return true;
        };
        const auto is_vertex = [this](net::NodeId id) {
          return world_.sampler(id) != nullptr;
        };
        auto point = estimator_.tick(
            std::span<const net::NodeId>(world_.alive_ids()),
            world_.gossiping_count(), neighbors, is_vertex, graph_rng_);
        point.t_seconds = now_s;
        graph.push_back(point);
        break;
      }
      case Spec::RecordKind::Randomness: {
        metrics::RandomnessAuditor::Adjacency adjacency;
        adjacency.reserve(world_.gossiping_count());
        for (const net::NodeId id : world_.sorted_ids()) {
          const auto* s = world_.sampler(id);
          if (s == nullptr) continue;
          adjacency.emplace_back(id, s->out_neighbors());
        }
        audit.push_back(auditor_.observe(adjacency, world_.class_map(),
                                         world_.true_ratio(), now_s));
        break;
      }
      case Spec::RecordKind::None:
      case Spec::RecordKind::Graph:
        break;
    }
    world_.simulator().schedule_after(interval_, [this] { replica_tick(); });
    ns += suite_clock_ns() - t0;
    ++ticks;
  }

  run::World& world_;
  Spec::RecordKind kind_;
  sim::Duration interval_;
  sim::RngStream graph_rng_;
  metrics::StreamingGraphEstimator estimator_;
  metrics::RandomnessAuditor auditor_;
  std::uint64_t kill_epoch_ = 0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Linear-interpolated quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

TracedResult run_traced(const Spec& spec, std::uint64_t seed,
                        std::size_t world_jobs) {
  spec.validate();
  require_supported(spec);
  const std::size_t jobs = std::max<std::size_t>(world_jobs, 1);

  SpanRegistry spans;
  const run::ProtocolFactory protocol =
      run::ProtocolRegistry::instance().make_from_spec(spec.protocol);
  const run::ProtocolFactory timed =
      [&protocol, &spans](pss::PeerSampler::Context ctx) {
        pss::PeerSampler::Context base = ctx;
        return std::unique_ptr<pss::PeerSampler>(std::make_unique<TimedSampler>(
            std::move(base), protocol(std::move(ctx)), spans));
      };
  run::World world(world_config(spec, seed, jobs), timed);

  // Experiment's arming order: joins, churn, recorder.
  std::vector<std::unique_ptr<run::ScenarioProcess>> scenario;
  const std::size_t pubs = spec.publics();
  const std::size_t privs = spec.privates();
  std::uint64_t instant_spawns = 0;
  if (spec.join == Spec::JoinKind::Poisson) {
    if (pubs > 0) {
      scenario.push_back(run::JoinProcess::poisson(
          world, pubs, net::NatConfig::open(),
          ms_to_duration(spec.join_public_ms)));
      scenario.back()->start(0);
    }
    if (privs > 0) {
      scenario.push_back(run::JoinProcess::poisson(
          world, privs, net::NatConfig::natted(),
          ms_to_duration(spec.join_private_ms)));
      scenario.back()->start(0);
    }
  } else {
    for (std::size_t i = 0; i < pubs; ++i) world.spawn(net::NatConfig::open());
    for (std::size_t i = 0; i < privs; ++i) {
      world.spawn(net::NatConfig::natted());
    }
    instant_spawns = pubs + privs;
  }
  if (spec.churn > 0.0) {
    scenario.push_back(std::make_unique<run::ChurnProcess>(
        world, spec.churn, net::NatConfig::open(), net::NatConfig::natted()));
    scenario.back()->start(s_to_duration(spec.churn_at_s));
  }
  ReplicaRecorder recorder(world, spec);
  recorder.arm();

  const SpanSlot at_start = spans.merged();
  std::vector<double> slice_ms;
  std::int64_t span_ns = 0;
  const sim::SimTime end = spec.duration();
  for (sim::SimTime t = 0; t < end;) {
    t = std::min<sim::SimTime>(t + sim::sec(1), end);
    const std::int64_t s0 = suite_clock_ns();
    world.run_until(t);
    const std::int64_t slice = suite_clock_ns() - s0;
    span_ns += slice;
    slice_ms.push_back(static_cast<double>(slice) / 1e6);
  }
  const SpanSlot total = spans.merged();

  run::ScenarioProcess::Stats scen;
  for (const auto& process : scenario) {
    const auto s = process->stats();
    scen.spawned += s.spawned;
    scen.killed += s.killed;
    scen.replaced += s.replaced;
    scen.reclassified += s.reclassified;
  }

  RunOutputs out;
  out.duration_s = spec.duration_s;
  if (spec.record == Spec::RecordKind::Estimation) {
    out.estimation = &recorder.estimation;
  }
  if (spec.record == Spec::RecordKind::GraphSampled) {
    out.graph_sampled = &recorder.graph;
  }
  if (spec.record == Spec::RecordKind::Randomness) {
    out.randomness = &recorder.audit;
  }
  out.events = world.simulator().events_processed();
  out.drops = world.network().drops();
  out.scenario = scen;

  TracedResult result;
  result.digest = digest_of(out);
  result.checks = checks_of(out);
  auto& m = result.layers;

  // Protocol spans inside the run (init also runs at set-up for instant
  // joins). Under the parallel engine handler spans overlap across
  // workers; dividing by the worker count gives their wall-time share.
  SpanTotals msg_all;
  for (const auto& s : total.msg) {
    msg_all.calls += s.calls;
    msg_all.ns += s.ns;
  }
  std::int64_t msg_start_ns = 0;
  for (const auto& s : at_start.msg) msg_start_ns += s.ns;
  const double span = static_cast<double>(span_ns);
  const double wall = static_cast<double>(jobs) * span;
  const double init_run_ns =
      static_cast<double>(total.init.ns - at_start.init.ns);
  const double round_run_ns =
      static_cast<double>(total.round.ns - at_start.round.ns);
  const double msg_run_ns = static_cast<double>(msg_all.ns - msg_start_ns);
  const double handler_ns = init_run_ns + round_run_ns + msg_run_ns;
  const double record_ns = static_cast<double>(recorder.ns);
  // The protocol, recorder and sim spans sum to the traced span by
  // construction. A negative self time would mean the outside-in spans
  // overlap, and run.py fails such a run.
  const double self_ns = span - handler_ns / static_cast<double>(jobs) -
                         record_ns;
  const auto rounds = static_cast<double>(total.round.calls);
  const auto events = static_cast<double>(out.events);

  m["trace.span_s"] = span / 1e9;

  m["sim.events"] = events;
  m["sim.events_per_round"] = ratio(events, rounds);
  m["sim.self_s"] = self_ns / 1e9;
  m["sim.self_share"] = ratio(self_ns, span);
  m["sim.self_ns_per_event"] = ratio(self_ns, events);
  m["sim.slices"] = static_cast<double>(slice_ms.size());
  m["sim.slice_ms_p50"] = quantile(slice_ms, 0.5);
  if (slice_ms.size() >= 200) m["sim.slice_ms_p95"] = quantile(slice_ms, 0.95);

  const sim::ParallelExecutor::Stats engine =
      world.engine_stats() != nullptr ? *world.engine_stats()
                                      : sim::ParallelExecutor::Stats{};
  const auto batched = static_cast<double>(engine.batched_events);
  m["engine.batches"] = static_cast<double>(engine.batches);
  m["engine.batch_mean"] =
      ratio(batched, static_cast<double>(engine.batches));
  m["engine.max_batch"] = static_cast<double>(engine.max_batch);
  m["engine.serial_frac"] = 1.0 - ratio(batched, events);
  m["engine.handler_busy_frac"] = ratio(handler_ns, wall);

  m["proto.init.calls"] = static_cast<double>(total.init.calls);
  m["proto.init.ns_per_call"] = ratio(static_cast<double>(total.init.ns),
                                      static_cast<double>(total.init.calls));
  m["proto.round.calls"] = rounds;
  m["proto.round.ns_per_call"] =
      ratio(static_cast<double>(total.round.ns), rounds);
  m["proto.round.share"] = ratio(round_run_ns, wall);
  m["proto.msg.calls"] = static_cast<double>(msg_all.calls);
  m["proto.msg.ns_per_call"] = ratio(static_cast<double>(msg_all.ns),
                                     static_cast<double>(msg_all.calls));
  m["proto.msg.share"] = ratio(msg_run_ns, wall);
  for (std::size_t t = 0; t < total.msg.size(); ++t) {
    const SpanTotals& s = total.msg[t];
    if (s.calls == 0) continue;
    const std::string key = std::string("proto.msg.") + total.msg_name[t];
    const auto calls = static_cast<double>(s.calls);
    m[key + ".calls"] = calls;
    m[key + ".ns_per_call"] = static_cast<double>(s.ns) / calls;
    m[key + ".share"] = ratio(
        static_cast<double>(s.ns - at_start.msg[t].ns), wall);
  }

  std::uint64_t croupiers = 0;
  std::uint64_t cached = 0;
  world.for_each_sampler([&](net::NodeId, pss::PeerSampler& s) {
    const auto& timed_sampler = dynamic_cast<const TimedSampler&>(s);
    if (const auto* c =
            dynamic_cast<const core::Croupier*>(&timed_sampler.wrapped())) {
      ++croupiers;
      cached += c->estimator().cached_count();
    }
  });
  m["core.estimator.cache_mean"] =
      ratio(static_cast<double>(cached), static_cast<double>(croupiers));

  const auto& d = out.drops;
  std::uint64_t datagrams = 0;
  std::uint64_t bytes_sent = 0;
  // detlint:allow(unordered-iter) integer sums over the meter; the
  // result is independent of the visiting order.
  for (const auto& [id, totals] : world.network().meter().per_node()) {
    datagrams += totals.msgs_sent;
    bytes_sent += totals.bytes_sent;
  }
  // Datagrams that reached a live receiver whose NAT admitted them (the
  // few still in flight at the horizon count as reached).
  const std::uint64_t dropped = d.loss + d.nat_filtered + d.dead_receiver;
  m["net.datagrams"] = static_cast<double>(datagrams);
  m["net.delivered_frac"] =
      ratio(static_cast<double>(datagrams - std::min(dropped, datagrams)),
            static_cast<double>(datagrams));
  m["net.drop.loss"] = static_cast<double>(d.loss);
  m["net.drop.nat"] = static_cast<double>(d.nat_filtered);
  m["net.drop.dead"] = static_cast<double>(d.dead_receiver);
  m["net.bytes_per_round"] = ratio(static_cast<double>(bytes_sent), rounds);
  m["net.fragments_per_msg"] =
      ratio(static_cast<double>(d.fragments_sent),
            static_cast<double>(d.delivered));
  m["net.fragments_expired_frac"] =
      ratio(static_cast<double>(d.fragments_expired),
            static_cast<double>(d.fragments_sent));

  const pss::ViewArena::Stats arena = world.view_arena().stats();
  m["pss.arena_live_mib"] = static_cast<double>(arena.live_bytes) / kMiB;
  m["pss.arena_slab_mib"] = static_cast<double>(arena.slab_bytes) / kMiB;
  m["pss.arena_live_frac"] = ratio(static_cast<double>(arena.live_bytes),
                                   static_cast<double>(arena.slab_bytes));
  m["pss.arena_reuses"] = static_cast<double>(arena.reuses);

  m["runtime.spawned"] = static_cast<double>(scen.spawned + instant_spawns);
  m["runtime.killed"] = static_cast<double>(scen.killed);

  m["record.ticks"] = static_cast<double>(recorder.ticks);
  m["record.ms_per_tick"] =
      ratio(record_ns / 1e6, static_cast<double>(recorder.ticks));
  m["record.share"] = ratio(record_ns, span);

  m["mem.peak_rss_mib"] = static_cast<double>(exp::peak_rss_bytes()) / kMiB;
  m["mem.rss_per_node_kib"] =
      ratio(static_cast<double>(exp::peak_rss_bytes()) / 1024.0,
            static_cast<double>(spec.nodes));
  m["mem.estimator_cache_mib"] =
      static_cast<double>(cached * sizeof(core::EstimateEntry)) / kMiB;
  return result;
}

}  // namespace croupier::suite
