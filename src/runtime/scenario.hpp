// Scenario processes: the workload side of every experiment.
//
// Every membership dynamic an experiment can throw at the overlay is a
// ScenarioProcess — one common interface (start once, read stats) so an
// Experiment owns its workload as a pipeline of uniform objects:
//
//  - JoinProcess: Poisson joins (paper: "nodes join the system following
//    a Poisson distribution with an inter-arrival time of X ms") and
//    fixed-rate joins (fig. 2's ratio-change phase: "a new public node
//    every 42 ms");
//  - FlashCrowdProcess: a join surge with a piecewise (ramp-up, peak,
//    ramp-down) rate profile — the flash-crowd workload the paper's
//    constant-rate join processes cannot express;
//  - ChurnProcess: continuous churn ("replacing a fixed fraction of
//    randomly selected public and private nodes with new nodes at each
//    gossiping round, keeping the ratio stable", §VII-B);
//  - CatastropheProcess: catastrophic failure (fig. 7b: a fraction of
//    all nodes crashes at a single instant, uniformly sampled);
//  - CorrelatedFailureProcess: the adversarial variant — the crashing
//    cohort is a contiguous latency region or biased to one NAT class,
//    the membership dynamics under which peer-sampler randomness claims
//    are most fragile (PeerSwap, arXiv:2408.03829).
//
// Determinism contract: every event a scenario process schedules is
// serial-affinity (scenario code mutates cross-node state — spawns,
// kills, the shared scenario RNG), so the round-synchronous parallel
// engine treats it as a barrier and runs stay byte-identical across
// engines.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/nat.hpp"
#include "runtime/world.hpp"
#include "sim/ticker.hpp"

namespace croupier::run {

namespace detail {
struct JoinState;
}  // namespace detail

/// One membership dynamic of an experiment. Concrete processes schedule
/// their own events on the world's simulator; the owner (usually an
/// Experiment) arms each once with start(), and it runs from then to the
/// end of the simulation.
class ScenarioProcess {
 public:
  explicit ScenarioProcess(World& world) : world_(world) {}
  virtual ~ScenarioProcess() = default;

  ScenarioProcess(const ScenarioProcess&) = delete;
  ScenarioProcess& operator=(const ScenarioProcess&) = delete;

  /// Arms the process at virtual time `at`. Call at most once.
  virtual void start(sim::SimTime at) = 0;

  /// Lifetime totals of what the process did to the population.
  struct Stats {
    std::uint64_t spawned = 0;       // nodes created
    std::uint64_t killed = 0;        // nodes crashed
    std::uint64_t replaced = 0;      // kill+respawn pairs (churn, eclipse)
    std::uint64_t reclassified = 0;  // in-place NAT class flips (natflap)
  };
  [[nodiscard]] virtual Stats stats() const = 0;

 protected:
  World& world_;
  bool started_ = false;  // start-once guard of the non-ticking processes
};

/// Poisson or fixed-interval join process: `count` nodes join, one per
/// exponential (mean) or fixed (interval) gap, from start(at) on. With
/// `seeded`, they join through World::spawn_seeded, as the operator seeds
/// that a world running the NAT-ID protocol needs before any node can
/// classify itself.
class JoinProcess final : public ScenarioProcess {
 public:
  /// Exponential inter-arrival times of the given mean.
  static std::unique_ptr<JoinProcess> poisson(World& world, std::size_t count,
                                              const net::NatConfig& nat,
                                              sim::Duration mean_interarrival,
                                              bool seeded = false);
  /// Fixed inter-arrival interval.
  static std::unique_ptr<JoinProcess> fixed(World& world, std::size_t count,
                                            const net::NatConfig& nat,
                                            sim::Duration interval,
                                            bool seeded = false);

  void start(sim::SimTime at) override;
  [[nodiscard]] Stats stats() const override;

 private:
  JoinProcess(World& world, std::size_t count, const net::NatConfig& nat,
              sim::Duration mean, sim::Duration fixed, bool seeded);

  std::shared_ptr<detail::JoinState> state_;
};

/// A flash crowd: `publics` + `privates` extra nodes join inside a
/// window of `over` virtual time with a triangular rate profile — the
/// join rate ramps linearly up to its peak at the window midpoint and
/// back down to zero. Arrival times are the deterministic inverse-CDF
/// grid of that profile (no RNG), so the surge shape is identical across
/// seeds and engines.
class FlashCrowdProcess final : public ScenarioProcess {
 public:
  FlashCrowdProcess(World& world, std::size_t publics, std::size_t privates,
                    sim::Duration over);

  void start(sim::SimTime at) override;
  [[nodiscard]] Stats stats() const override;

 private:
  std::size_t publics_;
  std::size_t privates_;
  sim::Duration over_;
  // Owned jointly with the queued arrivals, which count into it.
  std::shared_ptr<std::uint64_t> spawned_;
};

/// Catastrophic failure: floor(fraction * alive) uniformly random nodes
/// crash at one instant (fig. 7b). The kill event is scheduled from
/// inside a same-time event so it executes after every event already
/// queued at that timestamp — the tie-break the historic hand-built
/// fig7b bench established; spec-built worlds stay bit-compatible
/// with it.
class CatastropheProcess final : public ScenarioProcess {
 public:
  CatastropheProcess(World& world, double fraction);
  ~CatastropheProcess() override { *alive_flag_ = false; }

  void start(sim::SimTime at) override;
  [[nodiscard]] Stats stats() const override { return stats_; }

 private:
  void fire();

  double fraction_;
  Stats stats_;
  std::shared_ptr<bool> alive_flag_;  // guards the queued fire() events
};

/// Correlated failure: like a catastrophe, but the crashing cohort is
/// structured instead of uniform —
///   Region:  a contiguous latency neighbourhood (the floor(frac*alive)
///            nodes closest, by the latency model's deterministic
///            base_latency metric, to a uniformly drawn epicenter node);
///   Public / Private: biased to one NAT class — victims are drawn
///            uniformly from that class first and spill into the rest of
///            the population only once the class is exhausted, so `frac`
///            keeps meaning a fraction of the whole system;
///   Uniform: the fig. 7b baseline, for like-for-like comparisons.
class CorrelatedFailureProcess final : public ScenarioProcess {
 public:
  enum class Corr : std::uint8_t { Uniform, Region, Public, Private };

  CorrelatedFailureProcess(World& world, double fraction, Corr corr);
  ~CorrelatedFailureProcess() override { *alive_flag_ = false; }

  void start(sim::SimTime at) override;
  [[nodiscard]] Stats stats() const override { return stats_; }

 private:
  void fire();

  double fraction_;
  Corr corr_;
  Stats stats_;
  std::shared_ptr<bool> alive_flag_;
};

/// Continuous churn: each period, `fraction` of each node class is
/// replaced by fresh nodes of the same class, preserving the ratio.
/// Fractional quotas accumulate across rounds so arbitrarily low rates
/// (0.1 %/round) still average out correctly; a quota carry is dropped
/// while its class has no live nodes (a stale carry would otherwise
/// burst-replace the first node of that class to reappear after a
/// catastrophe or at ratio extremes).
class ChurnProcess final : public ScenarioProcess {
 public:
  ChurnProcess(World& world, double fraction_per_round,
               net::NatConfig public_cfg, net::NatConfig private_cfg,
               sim::Duration period = sim::sec(1));

  /// Starts replacing nodes at time `at`, once per period from then on.
  void start(sim::SimTime at) override { ticker_.start(at); }

  [[nodiscard]] std::uint64_t replaced() const { return replaced_; }
  [[nodiscard]] Stats stats() const override;

 private:
  void tick();

  double fraction_;
  net::NatConfig public_cfg_;
  net::NatConfig private_cfg_;
  double carry_public_ = 0.0;
  double carry_private_ = 0.0;
  std::uint64_t replaced_ = 0;
  sim::Ticker ticker_;
};

/// Eclipse attack as a membership dynamic: each period, every node the
/// target currently points at is crashed and replaced by a fresh node of
/// the same NAT class (population size and ratio stay stable, so audit
/// shifts are attributable to the attack, not to shrinkage). The target
/// is forced to rebuild its view from strangers every period — a sampler
/// whose replacement stream is not uniform leaks it in the target's
/// in-degree and repeat statistics. A dead or not-yet-gossiping target
/// makes the tick a deterministic no-op.
class EclipseProcess final : public ScenarioProcess {
 public:
  EclipseProcess(World& world, net::NodeId target, sim::Duration period);

  void start(sim::SimTime at) override { ticker_.start(at); }
  [[nodiscard]] Stats stats() const override { return stats_; }

 private:
  void tick();

  net::NodeId target_;
  Stats stats_;
  sim::Ticker ticker_;
};

/// Oscillating NAT reclassification: each period alternates between an
/// "out" phase — floor(frac * alive) uniformly drawn nodes flip class in
/// place (public -> carrier NAT, private -> open) through
/// World::reclassify, re-joining through the NAT-ID path when the world
/// runs it — and a "back" phase restoring every still-alive flapped node
/// to its original configuration. Node identities and RNG lineages
/// survive the flip; only the protocol instance is rebuilt. This is the
/// dynamic that breaks traversal-dependent samplers (gozar's relay
/// parents, nylon's RVP chains reference classes that no longer hold)
/// while a croupier private only ever depends on live publics.
class NatFlapProcess final : public ScenarioProcess {
 public:
  NatFlapProcess(World& world, double fraction, sim::Duration period);

  void start(sim::SimTime at) override { ticker_.start(at); }
  [[nodiscard]] Stats stats() const override { return stats_; }

  /// Nodes currently flipped away from their original class.
  [[nodiscard]] std::size_t currently_flapped() const {
    return flapped_.size();
  }

 private:
  void tick();

  double fraction_;
  bool out_phase_ = true;  // next tick flips out; alternates
  std::vector<std::pair<net::NodeId, net::NatConfig>> flapped_;
  Stats stats_;
  sim::Ticker ticker_;
};

}  // namespace croupier::run
