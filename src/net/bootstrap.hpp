// Bootstrap oracle.
//
// Real deployments of the paper's protocols rely on a bootstrap server
// that hands joining nodes the addresses of a few public nodes (paper §V:
// "a number of public nodes returned by a bootstrap server"). In the
// simulation this is an oracle object, not a simulated node: it keeps a
// registry of currently-alive nodes and samples from it. Only its
// *public-node* sampling is used by the protocols, mirroring the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash_index.hpp"
#include "net/address.hpp"
#include "sim/rng.hpp"

namespace croupier::net {

class BootstrapServer {
 public:
  void add(NodeId id, NatType type);
  void remove(NodeId id);

  /// Up to n distinct public nodes, uniformly at random, excluding `self`.
  [[nodiscard]] std::vector<NodeId> sample_public(std::size_t n, NodeId self,
                                                  sim::RngStream& rng) const;

  /// Up to n distinct nodes of any type, uniformly at random, excluding
  /// `self`. (Used by baselines whose original papers bootstrap from the
  /// full membership.)
  [[nodiscard]] std::vector<NodeId> sample_any(std::size_t n, NodeId self,
                                               sim::RngStream& rng) const;

  [[nodiscard]] std::size_t public_count() const { return publics_.size(); }
  [[nodiscard]] std::size_t total_count() const { return all_.size(); }
  [[nodiscard]] bool known(NodeId id) const { return index_all_.contains(id); }

 private:
  static std::vector<NodeId> sample_from(const std::vector<NodeId>& pool,
                                         std::size_t n, NodeId self,
                                         sim::RngStream& rng);
  // Registries support O(1) add/remove via swap-with-last.
  std::vector<NodeId> publics_;
  HashIndex<NodeId, std::size_t> index_public_;
  std::vector<NodeId> all_;
  HashIndex<NodeId, std::size_t> index_all_;
};

}  // namespace croupier::net
