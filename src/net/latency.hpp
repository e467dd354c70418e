// Pairwise latency models.
//
// The paper drives its simulations with the King data set [16]. That data
// is not redistributable here, so KingLatencyModel synthesizes a
// King-like latency space: each unordered node pair gets a deterministic
// base latency drawn from a log-normal distribution fitted to the
// published King statistics (median ~77 ms, mean ~90 ms, heavy right
// tail), plus a small per-packet jitter. Latencies are symmetric and
// stable for a pair across the run, like a real latency map.
#pragma once

#include <cstdint>
#include <memory>

#include "net/address.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace croupier::net {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// One-way delay for a packet sent now from `from` to `to`.
  virtual sim::Duration sample(NodeId from, NodeId to,
                               sim::RngStream& rng) = 0;

  /// Hard lower bound on every value sample() can return. The parallel
  /// engine's causal lookahead window is exactly this bound: events for
  /// different nodes closer together in time than the fastest possible
  /// packet cannot influence each other. A model that cannot promise a
  /// positive bound keeps the default 0 (the engine then degenerates to
  /// same-timestamp batching — correct, just not parallel).
  [[nodiscard]] virtual sim::Duration min_latency() const { return 0; }

  /// Deterministic jitter-free latency for a pair — the model's notion of
  /// "how far apart" two nodes are. Region-correlated failure scenarios
  /// use this as the metric defining a contiguous latency neighbourhood,
  /// so it must be stable across a run and must not consume any RNG.
  /// Models without pairwise structure keep the default (every pair
  /// equally far).
  [[nodiscard]] virtual sim::Duration base_latency(NodeId /*a*/,
                                                   NodeId /*b*/) const {
    return min_latency();
  }
};

/// Fixed delay; useful in unit tests that assert exact timings.
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(sim::Duration d) : delay_(d) {}
  sim::Duration sample(NodeId, NodeId, sim::RngStream&) override {
    return delay_;
  }
  [[nodiscard]] sim::Duration min_latency() const override { return delay_; }

 private:
  sim::Duration delay_;
};

/// Tuning knobs for the synthetic King-like latency space.
struct KingLatencyParams {
  double median_ms = 77.0;       // King median RTT/2 scale
  double sigma = 0.56;           // log-normal shape (fits mean ~90 ms)
  double jitter_fraction = 0.1;  // per-packet +/- jitter
  sim::Duration min_latency = sim::msec(2);
  sim::Duration max_latency = sim::msec(800);
};

/// Geographic-embedding latency model: every node gets a deterministic
/// position on a 2D plane (three Gaussian "continent" clusters); pair
/// latency = propagation proportional to Euclidean distance + a fixed
/// last-mile cost + per-packet jitter. Complements KingLatencyModel with
/// *correlated* latencies (triangle-inequality-respecting), which matters
/// when studying chain routing (Nylon) over long paths.
class CoordinateLatencyModel final : public LatencyModel {
 public:
  struct Params {
    double plane_ms = 160.0;      // latency across the full plane diagonal
    double last_mile_ms = 4.0;    // fixed per-hop access cost
    double cluster_stddev = 0.08; // continent spread (plane units)
    double jitter_fraction = 0.1;
    sim::Duration min_latency = sim::msec(1);
  };

  explicit CoordinateLatencyModel(std::uint64_t seed);
  CoordinateLatencyModel(std::uint64_t seed, const Params& params);

  sim::Duration sample(NodeId from, NodeId to, sim::RngStream& rng) override;
  [[nodiscard]] sim::Duration min_latency() const override {
    return params_.min_latency;
  }

  /// Deterministic node position in [0,1]^2.
  [[nodiscard]] std::pair<double, double> position(NodeId node) const;
  /// Deterministic base latency (no jitter).
  [[nodiscard]] sim::Duration base_latency(NodeId a, NodeId b) const override;

 private:
  std::uint64_t seed_;
  Params params_;
};

/// Synthetic King-like Internet latency map (see file comment).
class KingLatencyModel final : public LatencyModel {
 public:
  using Params = KingLatencyParams;

  explicit KingLatencyModel(std::uint64_t seed, Params params = {});

  /// base_latency(from, to) plus this packet's jitter. The network's
  /// serial half calls it once per datagram, and for a fragmented
  /// message once per fragment back to back, so the last ordered pair
  /// priced is remembered: a message's fragments pay for one base
  /// latency. The memo changes no value and no RNG draw.
  sim::Duration sample(NodeId from, NodeId to, sim::RngStream& rng) override;
  [[nodiscard]] sim::Duration min_latency() const override {
    return params_.min_latency;
  }

  /// Deterministic symmetric base latency for a pair (no jitter).
  [[nodiscard]] sim::Duration base_latency(NodeId a, NodeId b) const override;

 private:
  /// A pair sample() priced, with its base latency.
  struct PricedPair {
    NodeId from;
    NodeId to;
    sim::Duration base;
  };

  std::uint64_t seed_;
  Params params_;
  PricedPair last_;  // primed with a priced pair, so it never answers unpriced
};

}  // namespace croupier::net
