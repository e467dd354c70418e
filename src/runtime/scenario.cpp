#include "runtime/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace croupier::run {

namespace detail {

// Shared state for a recursive join process: the next queued arrival
// holds it by shared_ptr, so the chain never depends on the process
// object outliving it.
struct JoinState {
  std::size_t remaining;
  net::NatConfig nat;
  sim::Duration mean;  // exponential mean; 0 => fixed interval
  sim::Duration fixed;
  bool seeded;
  std::uint64_t spawned = 0;
};

}  // namespace detail

namespace {

using detail::JoinState;

void join_step(World& world, const std::shared_ptr<JoinState>& st) {
  --st->remaining;
  if (st->seeded) {
    world.spawn_seeded(st->nat);
  } else {
    world.spawn(st->nat);
  }
  ++st->spawned;
  if (st->remaining == 0) return;
  const sim::Duration gap =
      st->mean > 0
          ? static_cast<sim::Duration>(world.scenario_rng().exponential(
                static_cast<double>(st->mean)))
          : st->fixed;
  world.simulator().schedule_after(gap,
                                   [&world, st] { join_step(world, st); });
}

/// Inverse CDF of the triangular rate profile on [0, 1] (peak at 1/2):
/// the fraction of the flash-crowd window elapsed when a fraction `u` of
/// the crowd has arrived.
double triangular_inv_cdf(double u) {
  if (u <= 0.5) return std::sqrt(u / 2.0);
  return 1.0 - std::sqrt((1.0 - u) / 2.0);
}

/// Kills floor(fraction * alive) victims picked uniformly one at a time
/// from the shrinking live population — the historic fig. 7b sampling.
std::uint64_t kill_uniform(World& world, double fraction) {
  const auto targets = static_cast<std::size_t>(
      std::floor(fraction * static_cast<double>(world.alive_count())));
  auto& rng = world.scenario_rng();
  std::uint64_t killed = 0;
  for (std::size_t i = 0; i < targets; ++i) {
    const auto& alive = world.alive_ids();
    if (alive.empty()) break;
    world.kill(alive[rng.index(alive.size())]);
    ++killed;
  }
  return killed;
}

}  // namespace

// ---------------------------------------------------------------- joins

JoinProcess::JoinProcess(World& world, std::size_t count,
                         const net::NatConfig& nat, sim::Duration mean,
                         sim::Duration fixed, bool seeded)
    : ScenarioProcess(world),
      state_(std::make_shared<JoinState>(
          JoinState{count, nat, mean, fixed, seeded})) {}

std::unique_ptr<JoinProcess> JoinProcess::poisson(
    World& world, std::size_t count, const net::NatConfig& nat,
    sim::Duration mean_interarrival, bool seeded) {
  CROUPIER_ASSERT(mean_interarrival > 0);
  return std::unique_ptr<JoinProcess>(
      new JoinProcess(world, count, nat, mean_interarrival, 0, seeded));
}

std::unique_ptr<JoinProcess> JoinProcess::fixed(World& world,
                                                std::size_t count,
                                                const net::NatConfig& nat,
                                                sim::Duration interval,
                                                bool seeded) {
  CROUPIER_ASSERT(interval > 0);
  return std::unique_ptr<JoinProcess>(
      new JoinProcess(world, count, nat, 0, interval, seeded));
}

void JoinProcess::start(sim::SimTime at) {
  CROUPIER_ASSERT(!started_);
  started_ = true;
  if (state_->remaining == 0) return;
  World& world = world_;
  world_.simulator().schedule_at(
      at, [&world, st = state_] { join_step(world, st); });
}

ScenarioProcess::Stats JoinProcess::stats() const {
  Stats s;
  s.spawned = state_->spawned;
  return s;
}

// ---------------------------------------------------------- flash crowd

FlashCrowdProcess::FlashCrowdProcess(World& world, std::size_t publics,
                                     std::size_t privates,
                                     sim::Duration over)
    : ScenarioProcess(world),
      publics_(publics),
      privates_(privates),
      over_(over),
      spawned_(std::make_shared<std::uint64_t>(0)) {
  CROUPIER_ASSERT(over_ > 0);
}

void FlashCrowdProcess::start(sim::SimTime at) {
  CROUPIER_ASSERT(!started_);
  started_ = true;
  // Arrival k of N lands at the inverse-CDF grid point of the triangular
  // profile — deterministic, monotone in k, interleaving the two classes
  // purely by timestamp.
  const auto schedule_class = [this, at](std::size_t count,
                                         const net::NatConfig& nat) {
    for (std::size_t k = 0; k < count; ++k) {
      const double u =
          (static_cast<double>(k) + 0.5) / static_cast<double>(count);
      const auto offset = static_cast<sim::Duration>(std::llround(
          triangular_inv_cdf(u) * static_cast<double>(over_)));
      world_.simulator().schedule_at(
          at + offset, [&world = world_, spawned = spawned_, nat] {
            world.spawn(nat);
            ++*spawned;
          });
    }
  };
  schedule_class(publics_, net::NatConfig::open());
  schedule_class(privates_, net::NatConfig::natted());
}

ScenarioProcess::Stats FlashCrowdProcess::stats() const {
  Stats s;
  s.spawned = *spawned_;
  return s;
}

// ----------------------------------------------------------- catastrophe

CatastropheProcess::CatastropheProcess(World& world, double fraction)
    : ScenarioProcess(world),
      fraction_(fraction),
      alive_flag_(std::make_shared<bool>(true)) {
  CROUPIER_ASSERT(fraction_ >= 0.0 && fraction_ <= 1.0);
}

void CatastropheProcess::start(sim::SimTime at) {
  CROUPIER_ASSERT(!started_);
  started_ = true;
  // Double indirection on purpose: the hand-built fig7b ran the world up
  // to the crash instant and only then scheduled the kill, so the kill
  // executed after every already-queued event of that timestamp.
  // Scheduling the real kill event from inside a same-time event
  // reproduces that tie-break (fresh event ids sort last), keeping
  // spec-built worlds bit-compatible with the historic bench.
  world_.simulator().schedule_at(at, [this, armed = alive_flag_, at] {
    if (!*armed) return;
    world_.simulator().schedule_at(at, [this, armed] {
      if (*armed) fire();
    });
  });
}

void CatastropheProcess::fire() { stats_.killed += kill_uniform(world_, fraction_); }

// ----------------------------------------------------- correlated failure

CorrelatedFailureProcess::CorrelatedFailureProcess(World& world,
                                                   double fraction, Corr corr)
    : ScenarioProcess(world),
      fraction_(fraction),
      corr_(corr),
      alive_flag_(std::make_shared<bool>(true)) {
  CROUPIER_ASSERT(fraction_ >= 0.0 && fraction_ <= 1.0);
}

void CorrelatedFailureProcess::start(sim::SimTime at) {
  CROUPIER_ASSERT(!started_);
  started_ = true;
  world_.simulator().schedule_at(at, [this, armed = alive_flag_] {
    if (*armed) fire();
  });
}

void CorrelatedFailureProcess::fire() {
  const auto targets = static_cast<std::size_t>(
      std::floor(fraction_ * static_cast<double>(world_.alive_count())));
  if (targets == 0) return;
  auto& rng = world_.scenario_rng();

  if (corr_ == Corr::Uniform) {
    stats_.killed += kill_uniform(world_, fraction_);
    return;
  }

  if (corr_ == Corr::Region) {
    // One RNG draw picks the epicenter; the cohort is then the targets
    // nearest nodes in the latency model's deterministic metric
    // (ties broken by node id so the kill set is engine-independent).
    const auto& alive = world_.alive_ids();
    const net::NodeId epicenter = alive[rng.index(alive.size())];
    const auto& latency = world_.network().latency_model();
    std::vector<std::pair<sim::Duration, net::NodeId>> by_distance;
    by_distance.reserve(alive.size());
    for (const net::NodeId id : alive) {
      by_distance.emplace_back(latency.base_latency(epicenter, id), id);
    }
    std::sort(by_distance.begin(), by_distance.end());
    for (std::size_t i = 0; i < targets; ++i) {
      world_.kill(by_distance[i].second);
      ++stats_.killed;
    }
    return;
  }

  // NAT-class-biased: the named class dies first (uniform within it);
  // the quota spills into the remaining population only once the class
  // is exhausted.
  const net::NatType type = corr_ == Corr::Public ? net::NatType::Public
                                                  : net::NatType::Private;
  std::vector<net::NodeId> cohort;
  for (const net::NodeId id : world_.alive_ids()) {
    if (world_.type_of(id) == type) cohort.push_back(id);
  }
  const auto victims = rng.sample(std::span<const net::NodeId>(cohort),
                                 std::min(targets, cohort.size()));
  for (const net::NodeId id : victims) {
    world_.kill(id);
    ++stats_.killed;
  }
  if (victims.size() < targets) {
    const std::vector<net::NodeId> rest = world_.alive_ids();
    const auto spill = rng.sample(std::span<const net::NodeId>(rest),
                                  targets - victims.size());
    for (const net::NodeId id : spill) {
      world_.kill(id);
      ++stats_.killed;
    }
  }
}

// ----------------------------------------------------------------- churn

ChurnProcess::ChurnProcess(World& world, double fraction_per_round,
                           net::NatConfig public_cfg,
                           net::NatConfig private_cfg, sim::Duration period)
    : ScenarioProcess(world),
      fraction_(fraction_per_round),
      public_cfg_(public_cfg),
      private_cfg_(private_cfg),
      ticker_(world.simulator(), period, [this] { tick(); }) {
  CROUPIER_ASSERT(fraction_ >= 0.0 && fraction_ < 1.0);
  CROUPIER_ASSERT(public_cfg_.nat_type() == net::NatType::Public);
  CROUPIER_ASSERT(private_cfg_.nat_type() == net::NatType::Private);
}

ScenarioProcess::Stats ChurnProcess::stats() const {
  Stats s;
  s.replaced = replaced_;
  return s;
}

void ChurnProcess::tick() {
  auto replace_class = [this](net::NatType type, double& carry,
                              const net::NatConfig& cfg) {
    if (world_.count(type) == 0) {
      // A carry accrued while the class was populated must not survive
      // its extinction: it would burst-replace the first node of that
      // class to reappear (post-catastrophe refills, ratio=0/1 runs).
      carry = 0.0;
      return;
    }
    carry += fraction_ * static_cast<double>(world_.count(type));
    auto quota = static_cast<std::size_t>(std::floor(carry));
    carry -= static_cast<double>(quota);

    auto& rng = world_.scenario_rng();
    for (std::size_t i = 0; i < quota; ++i) {
      // Pick a victim of the right class by rejection. The class is
      // non-empty and every replacement keeps its size, so this ends
      // however small a share of the population the class is.
      const auto& alive = world_.alive_ids();
      net::NodeId victim = alive[rng.index(alive.size())];
      while (world_.type_of(victim) != type) {
        victim = alive[rng.index(alive.size())];
      }
      world_.kill(victim);
      world_.spawn(cfg);
      ++replaced_;
    }
  };

  replace_class(net::NatType::Public, carry_public_, public_cfg_);
  replace_class(net::NatType::Private, carry_private_, private_cfg_);
}

// ---------------------------------------------------------------- eclipse

EclipseProcess::EclipseProcess(World& world, net::NodeId target,
                               sim::Duration period)
    : ScenarioProcess(world),
      target_(target),
      ticker_(world.simulator(), period, [this] { tick(); }) {
  CROUPIER_ASSERT(target_ != net::kNilNode);
}

void EclipseProcess::tick() {
  const auto* sampler =
      world_.alive(target_) ? world_.sampler(target_) : nullptr;
  if (sampler == nullptr) return;
  // Snapshot, sort and dedupe the target's out-edges so the kill order
  // is a pure function of the view contents.
  std::vector<net::NodeId> neighbors = sampler->out_neighbors();
  std::sort(neighbors.begin(), neighbors.end());
  neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                  neighbors.end());
  for (const net::NodeId id : neighbors) {
    if (id == target_ || !world_.alive(id)) continue;
    const net::NatType type = world_.type_of(id);
    world_.kill(id);
    world_.spawn(type == net::NatType::Public ? net::NatConfig::open()
                                              : net::NatConfig::natted());
    ++stats_.replaced;
  }
}

// ---------------------------------------------------------------- natflap

NatFlapProcess::NatFlapProcess(World& world, double fraction,
                               sim::Duration period)
    : ScenarioProcess(world),
      fraction_(fraction),
      ticker_(world.simulator(), period, [this] { tick(); }) {
  CROUPIER_ASSERT(fraction_ > 0.0 && fraction_ <= 1.0);
}

void NatFlapProcess::tick() {
  if (out_phase_) {
    const auto targets = static_cast<std::size_t>(std::floor(
        fraction_ * static_cast<double>(world_.alive_count())));
    const auto victims =
        world_.scenario_rng().sample(
            std::span<const net::NodeId>(world_.alive_ids()), targets);
    for (const net::NodeId id : victims) {
      const net::NatConfig orig = world_.nat_config_of(id);
      flapped_.emplace_back(id, orig);
      world_.reclassify(id, orig.nat_type() == net::NatType::Public
                                ? net::NatConfig::natted()
                                : net::NatConfig::open());
      ++stats_.reclassified;
    }
  } else {
    for (const auto& [id, orig] : flapped_) {
      if (!world_.alive(id)) continue;  // churn/failure got it meanwhile
      world_.reclassify(id, orig);
      ++stats_.reclassified;
    }
    flapped_.clear();
  }
  out_phase_ = !out_phase_;
}

}  // namespace croupier::run
