// The peer-sampling-service interface every protocol implements.
//
// The runtime drives protocols: it constructs one PeerSampler per node,
// calls init() at join, calls round() once per gossip period (with
// per-node jitter standing in for clock skew), and routes network messages
// to on_message(). Applications consume the service through sample();
// metrics consume it through out_neighbors()/usable_neighbors().
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "net/bootstrap.hpp"
#include "net/network.hpp"
#include "pss/descriptor.hpp"
#include "pss/view.hpp"
#include "sim/rng.hpp"

namespace croupier::pss {

/// Parameters shared by all PSS protocols (paper §VII-A: view size 10,
/// shuffle subset 5). The 1 s round period is World::Config's: the
/// runtime drives rounds.
struct PssConfig {
  std::size_t view_size = 10;
  std::size_t shuffle_size = 5;
  std::size_t bootstrap_fanout = 5;  // publics handed to a joining node
  MergePolicy merge = MergePolicy::Swapper;
};

class PeerSampler : public net::MessageHandler {
 public:
  struct Context {
    net::NodeId self = net::kNilNode;
    net::NatType nat_type = net::NatType::Public;  // as identified at join
    net::Network* network = nullptr;
    net::BootstrapServer* bootstrap = nullptr;
    sim::RngStream rng;
    /// Pool the node's view storage is drawn from (World-owned; may be
    /// null, e.g. in protocol unit tests — views then use the heap).
    ViewArena* arena = nullptr;
  };

  explicit PeerSampler(Context ctx) : ctx_(std::move(ctx)) {
    CROUPIER_ASSERT(ctx_.network != nullptr);
    CROUPIER_ASSERT(ctx_.bootstrap != nullptr);
  }

  /// Called once when the node joins, before the first round.
  virtual void init() = 0;

  /// One gossip round (paper Algorithm 2, `Round`).
  virtual void round() = 0;

  /// Draws one (approximately) uniform random sample of a live node.
  virtual std::optional<NodeDescriptor> sample() = 0;

  /// Current out-edges of the overlay (targets of all view entries).
  [[nodiscard]] virtual std::vector<net::NodeId> out_neighbors() const = 0;

  /// Out-edges that would still be *usable* for an exchange given the
  /// liveness predicate — the connectivity notion behind paper fig. 7b.
  /// A NAT-aware protocol can only use an edge to a private node if its
  /// traversal machinery (croupier / relay / RVP chain) is still alive;
  /// protocols override this accordingly.
  using AliveFn = std::function<bool(net::NodeId)>;
  [[nodiscard]] virtual std::vector<net::NodeId> usable_neighbors(
      const AliveFn& alive) const;

  /// The node's current estimate of the public/private ratio ω, for
  /// protocols that maintain one (Croupier). Others report nothing.
  [[nodiscard]] virtual std::optional<double> ratio_estimate() const {
    return std::nullopt;
  }

  [[nodiscard]] net::NodeId self() const { return ctx_.self; }
  [[nodiscard]] net::NatType nat_type() const { return ctx_.nat_type; }

 protected:
  [[nodiscard]] net::Network& network() { return *ctx_.network; }
  [[nodiscard]] net::BootstrapServer& bootstrap() { return *ctx_.bootstrap; }
  [[nodiscard]] sim::RngStream& rng() { return ctx_.rng; }

  Context ctx_;
};

}  // namespace croupier::pss
