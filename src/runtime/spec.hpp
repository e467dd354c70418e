// ExperimentSpec: one experiment as a value.
//
// Everything the figure benches used to hand-roll — population size and
// public/private ratio, join process, churn, catastrophic failure,
// message loss, clock skew, latency model, duration, and what to record —
// lives in one serializable struct. A spec plus a seed fully determines a
// run: `Experiment(spec, seed)` builds the World through the
// ProtocolRegistry, schedules every scenario process, attaches the
// requested recorder, and `run()` plays it out.
//
// Specs round-trip through text (`parse` / `to_string`), so an experiment
// can be carried in a CLI flag, a file, or a CSV column:
//
//   protocol=croupier:alpha=25,gamma=50 nodes=1000 ratio=0.2 churn=0.01
//   duration=250
//
// The format is whitespace-separated `key=value` tokens; to_string emits
// the canonical minimal form (defaults omitted, fixed key order), and
// parse(to_string(s)) == s for every valid spec.
//
// C++ callers write the same spec as a value (designated initializers,
// fields in declaration order); Experiment's constructor validates it:
//
//   run::Experiment experiment({.nodes = 1000, .churn = 0.01}, seed);
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "runtime/recorder.hpp"
#include "runtime/scenario.hpp"
#include "runtime/world.hpp"

namespace croupier::run {

/// Defaults are the paper's §VII-A setup: ω = 0.2, Poisson joins with
/// 50 ms / 13 ms mean inter-arrival, King latencies, 1 % clock skew.
struct ExperimentSpec {
  enum class JoinKind : std::uint8_t {
    Poisson,  // exponential inter-arrival (the paper's join model)
    Fixed,    // fixed inter-arrival
    Instant,  // all nodes spawn before t=0 events run
  };
  enum class RecordKind : std::uint8_t { None, Estimation, Graph,
                                         GraphSampled, Randomness };
  /// How a correlated failure picks its victims (see
  /// CorrelatedFailureProcess).
  using FailureCorr = CorrelatedFailureProcess::Corr;

  /// Message-loss conditions: one rate per (sender class, receiver
  /// class) pair, optionally activating only after `after_s`. The
  /// scalar form `loss=0.1` (and the implicit constructor) is uniform
  /// loss from t=0 — the paper's model, byte-identical to the historic
  /// scalar field. Rates live in [0, 1): a rate of 1 would have crashed
  /// the Network's assert mid-trial, so validate() rejects it up front.
  struct LossSpec {
    double pub_pub = 0.0;
    double pub_priv = 0.0;
    double priv_pub = 0.0;
    double priv_priv = 0.0;
    double after_s = 0.0;

    LossSpec() = default;
    LossSpec(double p)  // NOLINT(google-explicit-constructor)
        : pub_pub(p), pub_priv(p), priv_pub(p), priv_priv(p) {}

    /// The net-layer form (rates into the matrix, seconds to SimTime) —
    /// the one place the two representations are mapped.
    [[nodiscard]] net::LossConfig to_config() const;

    [[nodiscard]] bool lossless() const { return to_config().lossless(); }
    [[nodiscard]] bool is_uniform() const {
      return to_config().is_uniform();
    }
    friend bool operator==(const LossSpec&, const LossSpec&) = default;
  };

  /// ProtocolRegistry spec, options included ("croupier:alpha=25,gamma=50").
  std::string protocol = "croupier";

  // Population: `nodes` total, `ratio` of them public (ω). The public
  // count is round-half-up of ratio*nodes, matching the benches' historic
  // n/5-style arithmetic at every paper operating point.
  std::size_t nodes = 1000;
  double ratio = 0.2;

  // Join process (public and private nodes as two parallel processes).
  JoinKind join = JoinKind::Poisson;
  double join_public_ms = 50.0;   // poisson mean / fixed interval
  double join_private_ms = 13.0;

  // Optional second join wave (fig. 2's ratio step): extra nodes at a
  // fixed interval starting at step_at_s.
  std::size_t step_publics = 0;
  std::size_t step_privates = 0;
  double step_at_s = 0.0;
  double step_every_ms = 42.0;

  // Flash crowd: an extra join surge with a triangular (ramp-up,
  // ramp-down) rate profile inside a window of flash_over_s seconds
  // starting at flash_at_s.
  std::size_t flash_publics = 0;
  std::size_t flash_privates = 0;
  double flash_at_s = 60.0;
  double flash_over_s = 10.0;

  // Continuous churn (fraction of each class replaced per round).
  double churn = 0.0;
  double churn_at_s = 61.0;

  // Catastrophic failure (fraction of all nodes crashing at one instant).
  double catastrophe = 0.0;
  double catastrophe_at_s = 60.0;

  // Correlated failure: a fraction of the system crashing at one
  // instant as a structured cohort (latency region / NAT class) rather
  // than a uniform sample.
  double failure_frac = 0.0;
  double failure_at_s = 60.0;
  FailureCorr failure_corr = FailureCorr::Region;

  // Eclipse attack: every eclipse period, each node the target currently
  // points at is crashed and replaced by a fresh node of the same class
  // (EclipseProcess). 0 = off; node ids start at 1, and validate()
  // rejects targets outside the initial population.
  std::size_t eclipse_target = 0;
  double eclipse_at_s = 60.0;
  double eclipse_period_s = 1.0;

  // Oscillating NAT reclassification (NatFlapProcess): every period
  // alternates between flipping floor(frac * alive) nodes' NAT class in
  // place and restoring them.
  double natflap_frac = 0.0;
  double natflap_at_s = 60.0;
  double natflap_period_s = 10.0;

  // Hub-forming adversary: the first `hubs` public spawns run the
  // self-promoting HubSampler shim instead of the honest protocol.
  std::size_t adversary_hubs = 0;

  // Network conditions.
  LossSpec loss{};

  // Packet layer (net/packet). mtu=0 (default) = whole messages ride
  // single datagrams, the historic byte-identical model; a positive mtu
  // fragments larger messages, `fec` appends rateless repair fragments,
  // and `bandwidth` meters each sender through a token bucket whose
  // queueing delay inflates delivery latency.
  std::size_t mtu = 0;               // bytes per datagram payload; 0 = off
  std::uint64_t bandwidth_bps = 0;   // bytes/second per node; 0 = uncapped
  std::uint64_t bandwidth_burst = 0;  // bucket depth bytes; 0 = 1 s of rate
  std::uint32_t fec_repair = 0;      // fixed repair fragments per message
  double fec_rate = 0.0;             // + ceil(rate * k) proportional repairs

  double skew = 0.01;                // World::Config::clock_skew
  double private_round_scale = 1.0;  // ablation_skew's adversarial bias
  World::LatencyKind latency = World::LatencyKind::King;
  double latency_ms = 50.0;          // constant-latency model only
  double round_ms = 1000.0;          // gossip round period
  bool natid = false;                // joiners run the NAT-ID protocol

  // Horizon and recording.
  double duration_s = 200.0;
  RecordKind record = RecordKind::Estimation;
  double record_every_s = 0.0;  // 0 = kind default (1 s est., 10 s graph)

  [[nodiscard]] std::size_t publics() const;
  [[nodiscard]] std::size_t privates() const { return nodes - publics(); }
  [[nodiscard]] sim::Duration duration() const;

  /// The net-layer form of the mtu/bandwidth/fec fields.
  [[nodiscard]] net::PacketConfig packet_config() const;

  /// Throws std::invalid_argument on out-of-range fields (ratio outside
  /// [0,1], churn outside [0,1), zero nodes, non-positive duration, ...).
  /// Times must lie in [0, 1e9] s, and a nonzero time other than
  /// latency-ms must be at least 1 µs once converted to simulated time.
  void validate() const;

  /// Canonical textual form; defaults omitted except the identifying
  /// quartet protocol/nodes/ratio/duration.
  [[nodiscard]] std::string to_string() const;

  /// Parses the `key=value ...` form. Throws std::invalid_argument on
  /// unknown keys, malformed values, or a spec that fails validate().
  static ExperimentSpec parse(const std::string& text);

  /// True when `key` is a spec key (composite keys by their own name,
  /// e.g. "flash"; subkeys are not keys).
  static bool has_key(const std::string& key);

  friend bool operator==(const ExperimentSpec&,
                         const ExperimentSpec&) = default;
};

/// One materialized run of a spec: owns the World, the scenario pipeline
/// (every membership dynamic of the spec as a ScenarioProcess), and the
/// requested recorder. Construction schedules everything; run() plays
/// the full horizon, or drive the simulator in slices with run_until()
/// for mid-run measurements (overhead windows, meter resets).
class Experiment {
 public:
  /// `world_jobs` picks the engine inside the single World (1 =
  /// sequential, N = round-synchronous parallel); it is a harness knob,
  /// not part of the experiment's identity — results are byte-identical
  /// for every value.
  Experiment(const ExperimentSpec& spec, std::uint64_t seed,
             std::size_t world_jobs = 1);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  [[nodiscard]] const ExperimentSpec& spec() const { return spec_; }
  [[nodiscard]] World& world() { return *world_; }

  /// The scheduled scenario processes, in scheduling order (joins, step
  /// wave, flash crowd, churn, catastrophe, correlated failure).
  [[nodiscard]] const std::vector<std::unique_ptr<ScenarioProcess>>&
  scenario() const {
    return scenario_;
  }

  /// Pipeline-wide totals (nodes spawned/killed/replaced by scenario
  /// processes — joins included).
  [[nodiscard]] ScenarioProcess::Stats scenario_stats() const;

  void run() { run_until(spec_.duration()); }
  void run_until(sim::SimTime t) { world_->run_until(t); }

  /// Recorder for the spec's RecordKind; nullptr when not requested.
  [[nodiscard]] const EstimationRecorder* estimation() const {
    return estimation_.get();
  }
  [[nodiscard]] const GraphStatsRecorder* graph_stats() const {
    return graph_stats_.get();
  }
  [[nodiscard]] const SampledGraphStatsRecorder* graph_sampled() const {
    return graph_sampled_.get();
  }
  [[nodiscard]] const RandomnessAuditRecorder* randomness() const {
    return randomness_.get();
  }

 private:
  ExperimentSpec spec_;
  std::unique_ptr<World> world_;
  // Declared after world_ so the pipeline, which holds World references,
  // is destroyed first.
  std::vector<std::unique_ptr<ScenarioProcess>> scenario_;
  std::unique_ptr<EstimationRecorder> estimation_;
  std::unique_ptr<GraphStatsRecorder> graph_stats_;
  std::unique_ptr<SampledGraphStatsRecorder> graph_sampled_;
  std::unique_ptr<RandomnessAuditRecorder> randomness_;
};

}  // namespace croupier::run
