// World: the experiment orchestrator.
//
// Owns the simulator (with a parallel executor attached when world_jobs >
// 1), the network, the bootstrap oracle, and every node's runtime (NAT-ID
// components + PSS protocol instance). Drives gossip rounds with per-node
// phase and a configurable clock-skew factor, and provides the snapshots
// (overlay graphs, per-node estimates, class maps) the metrics and
// benches consume.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash_index.hpp"
#include "metrics/graph.hpp"
#include "natid/natid.hpp"
#include "net/bootstrap.hpp"
#include "net/network.hpp"
#include "pss/protocol.hpp"
#include "sim/parallel_executor.hpp"
#include "sim/simulator.hpp"

namespace croupier::run {

using ProtocolFactory =
    std::function<std::unique_ptr<pss::PeerSampler>(pss::PeerSampler::Context)>;

class World {
 public:
  enum class LatencyKind : std::uint8_t { Constant, King, Coordinate };

  struct Config {
    std::uint64_t seed = 1;
    /// Message-loss conditions (per-class-pair, optionally time-varying;
    /// net::LossConfig::uniform(p) for the paper's flat probability).
    net::LossConfig loss;
    /// Packet layer (MTU fragmentation, FEC repair, per-node bandwidth
    /// caps). The default — mtu=0, uncapped — is the historic
    /// one-message-one-datagram model, byte-identical to every
    /// pre-packet run.
    net::PacketConfig packet;
    sim::Duration round_period = sim::sec(1);
    /// Per-node round period is scaled by 1 ± clock_skew (uniform),
    /// standing in for the paper's "subject to clock skew".
    double clock_skew = 0.01;
    /// Extra multiplier on *private* nodes' round period (1.0 = none).
    /// Deliberately violates the estimator's first assumption ("no bias
    /// between the average gossip round-time of public and private
    /// nodes") — used by bench/ablation_skew to quantify the resulting
    /// estimation bias.
    double private_round_scale = 1.0;
    LatencyKind latency = LatencyKind::King;
    sim::Duration constant_latency = sim::msec(50);
    /// When true, joining nodes run the distributed NAT-ID protocol
    /// (§V) before starting to gossip; otherwise the ground-truth
    /// classification is used directly (faster, and equivalent given the
    /// protocol's accuracy — tested separately).
    bool use_natid_protocol = false;
    sim::Duration natid_timeout = sim::sec(2);
    /// Worker threads inside this one World. 1 steps every event on the
    /// calling thread; N > 1 attaches the round-synchronous parallel
    /// batch step (sim/parallel_executor) to the simulator, whose output
    /// is byte-identical to 1.
    std::size_t world_jobs = 1;
  };

  World(Config cfg, ProtocolFactory factory);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Adds a node with the given ground-truth NAT configuration. Returns
  /// its id. The node begins gossiping after (optional) NAT
  /// identification, at a random phase within its round period.
  net::NodeId spawn(const net::NatConfig& nat);

  /// Adds a node whose classification is taken from ground truth even
  /// when use_natid_protocol is set — the operator-seeded nodes every
  /// deployment needs before the identification protocol has public
  /// responders to test against.
  net::NodeId spawn_seeded(const net::NatConfig& nat);

  /// Removes a node abruptly (crash). In-flight traffic to it is lost.
  void kill(net::NodeId id);

  /// Changes a live node's ground-truth NAT configuration in place (the
  /// natflap scenario: a laptop re-homing from an open network to a
  /// carrier NAT and back). The node's network identity and RNG lineage
  /// survive, but its protocol instance is torn down and rebuilt through
  /// the same join path spawn uses — including the distributed NAT-ID
  /// protocol when the World runs it — because that is what a real
  /// re-homed node would do. Clock skew is a node property and is kept;
  /// private_round_scale is applied at spawn only.
  void reclassify(net::NodeId id, const net::NatConfig& nat);

  [[nodiscard]] bool alive(net::NodeId id) const {
    return nodes_.contains(id);
  }
  [[nodiscard]] std::size_t alive_count() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<net::NodeId>& alive_ids() const {
    return alive_ids_;
  }
  /// Live node ids in ascending order — the deterministic iteration basis
  /// for every snapshot/aggregate the recorders and sinks consume.
  [[nodiscard]] std::vector<net::NodeId> sorted_ids() const;

  /// Ground-truth public/private counts and ratio ω over live nodes.
  [[nodiscard]] std::size_t count(net::NatType type) const;
  [[nodiscard]] double true_ratio() const;

  /// Plays the simulation to `t` (same as simulator().run_until).
  void run_until(sim::SimTime t) { sim_.run_until(t); }

  /// Batching statistics; nullptr when world_jobs <= 1.
  [[nodiscard]] const sim::ParallelExecutor::Stats* engine_stats() const {
    return executor_ ? &executor_->stats() : nullptr;
  }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  /// RNG stream reserved for scenario processes (joins, churn, failure).
  [[nodiscard]] sim::RngStream& scenario_rng() { return scenario_rng_; }

  /// Pool all node view storage is carved from (memory accounting).
  [[nodiscard]] const pss::ViewArena& view_arena() const {
    return view_arena_;
  }

  /// Live nodes with an active protocol instance (O(1); alive_count()
  /// minus nodes still running NAT identification).
  [[nodiscard]] std::size_t gossiping_count() const {
    return gossiping_count_;
  }

  /// Total kill() calls so far. Observers that accumulate state across
  /// snapshots (the sampled graph recorder's component tracking) treat a
  /// change as an epoch boundary and reset.
  [[nodiscard]] std::uint64_t kill_count() const { return kill_count_; }

  /// The node's protocol instance, or nullptr before identification
  /// completes / after death.
  [[nodiscard]] pss::PeerSampler* sampler(net::NodeId id);
  [[nodiscard]] const pss::PeerSampler* sampler(net::NodeId id) const;

  /// Ground-truth classification of a live node.
  [[nodiscard]] net::NatType type_of(net::NodeId id) const;
  /// Full ground-truth NAT configuration of a live node (what
  /// reclassify() restores after a flap).
  [[nodiscard]] const net::NatConfig& nat_config_of(net::NodeId id) const;
  /// Classification the node itself arrived at (== ground truth unless the
  /// NAT-ID protocol misidentified it).
  [[nodiscard]] net::NatType identified_type_of(net::NodeId id) const;

  /// Gossip rounds the node has executed (paper: metrics skip nodes with
  /// fewer than 2 rounds).
  [[nodiscard]] std::uint64_t rounds_of(net::NodeId id) const;

  /// Visits every live node that has an active protocol.
  void for_each_sampler(
      const std::function<void(net::NodeId, pss::PeerSampler&)>& fn) const;

  /// Directed overlay snapshot over live, gossiping nodes. With
  /// `usable_only`, edges are each protocol's usable_neighbors() — the
  /// fig. 7b connectivity notion.
  [[nodiscard]] metrics::OverlayGraph snapshot_overlay(
      bool usable_only = false) const;

  /// Ground-truth class of every live gossiping node (for overhead
  /// accounting), sorted by node id so downstream accumulation order is
  /// deterministic.
  [[nodiscard]] std::vector<std::pair<net::NodeId, net::NatType>> class_map()
      const;

  /// All current ratio estimates from nodes with >= min_rounds rounds.
  [[nodiscard]] std::vector<double> ratio_estimates(
      std::uint64_t min_rounds = 2) const;

  /// Registers an application-layer message handler for a node:
  /// messages whose type tag is outside the protocol ranges (use tags
  /// >= 0x80) are routed to it. This is how applications (examples/)
  /// layer their own traffic on top of the PSS. The handler must outlive
  /// the node; pass nullptr to remove.
  void set_app_handler(net::NodeId id, net::MessageHandler* handler);

 private:
  struct NodeRuntime;

  net::NodeId spawn_impl(const net::NatConfig& nat, bool skip_natid);
  void start_pss(NodeRuntime& node);
  void schedule_round(net::NodeId id, std::uint32_t epoch);
  void start_natid(NodeRuntime& node);

  Config cfg_;
  ProtocolFactory factory_;
  sim::Simulator sim_;
  // Attached to sim_ while it lives; world_jobs > 1 only.
  std::unique_ptr<sim::ParallelExecutor> executor_;
  sim::RngStream master_rng_;
  sim::RngStream scenario_rng_;
  sim::RngStream spawn_rng_;
  net::BootstrapServer bootstrap_;
  std::unique_ptr<net::Network> network_;

  // Declared before nodes_: views release their blocks into the arena on
  // node destruction, so the arena must be destroyed after the nodes.
  pss::ViewArena view_arena_;
  HashIndex<net::NodeId, std::unique_ptr<NodeRuntime>> nodes_;
  std::vector<net::NodeId> alive_ids_;
  HashIndex<net::NodeId, std::size_t> alive_index_;
  net::NodeId next_id_ = 1;
  std::size_t public_count_ = 0;  // ground truth over live nodes
  std::size_t gossiping_count_ = 0;
  std::uint64_t kill_count_ = 0;
};

}  // namespace croupier::run
