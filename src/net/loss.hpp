// Message-loss conditions.
//
// The paper's evaluation uses uniform loss ("messages are dropped with
// probability p"); the estimator's third assumption is precisely that the
// loss shows *no bias* between public and private nodes. To measure what
// happens when that assumption breaks, loss is a per-class-pair matrix,
// not a scalar: the Network asks its LossConfig for the drop probability
// of each packet, given the sender/receiver NAT classes and the current
// virtual time.
//
// Determinism contract: probability() is a pure function of its
// arguments — the Network owns the single loss die and rolls it exactly
// once per packet whose probability is positive, which is what keeps
// runs byte-identical across the sequential and round-synchronous
// parallel engines.
#pragma once

#include <array>

#include "net/nat.hpp"
#include "sim/time.hpp"

namespace croupier::net {

/// Declarative loss conditions: one drop rate per (sender class,
/// receiver class) pair, optionally activating only after a point in
/// virtual time (loss is zero before `after`). rate[0][*] is a public
/// sender, rate[*][0] a public receiver; index 1 is private. All rates
/// must lie in [0, 1) — a rate of 1 would silence a class pair entirely
/// and is rejected up front (the Network asserts it on construction).
struct LossConfig {
  std::array<std::array<double, 2>, 2> rate{{{0.0, 0.0}, {0.0, 0.0}}};
  sim::SimTime after = 0;

  /// Uniform loss probability p from t=0 (the historic scalar).
  static LossConfig uniform(double p) {
    LossConfig cfg;
    cfg.rate = {{{p, p}, {p, p}}};
    return cfg;
  }

  /// Probability that a packet sent at `now` from a node of class `from`
  /// to a node of class `to` is dropped: 0 before `after`, the pair's
  /// rate from then on.
  [[nodiscard]] double probability(sim::SimTime now, NatType from,
                                   NatType to) const {
    if (now < after) return 0.0;
    const auto i = [](NatType t) { return t == NatType::Public ? 0 : 1; };
    return rate[i(from)][i(to)];
  }

  /// True when every class pair shares one rate (the matrix carries no
  /// class structure; it may still be time-varying via `after`).
  [[nodiscard]] bool flat() const {
    return rate[0][0] == rate[0][1] && rate[0][0] == rate[1][0] &&
           rate[0][0] == rate[1][1];
  }

  /// True when no packet can ever be dropped (all rates zero).
  [[nodiscard]] bool lossless() const { return flat() && rate[0][0] == 0.0; }

  /// True when every class pair shares one rate and the loss is active
  /// from t=0 — the case that must behave exactly like the historic
  /// uniform scalar.
  [[nodiscard]] bool is_uniform() const { return after == 0 && flat(); }
};

}  // namespace croupier::net
