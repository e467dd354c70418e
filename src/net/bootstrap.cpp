#include "net/bootstrap.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "sim/conflict.hpp"

namespace croupier::net {

namespace {

void registry_add(std::vector<NodeId>& pool,
                  HashIndex<NodeId, std::size_t>& index, NodeId id) {
  CROUPIER_ASSERT_MSG(!index.contains(id), "node registered twice");
  index.emplace(id, pool.size());
  pool.push_back(id);
}

void registry_remove(std::vector<NodeId>& pool,
                     HashIndex<NodeId, std::size_t>& index,
                     NodeId id) {
  const auto it = index.find(id);
  if (it == index.end()) return;
  const std::size_t pos = it->second;
  const NodeId last = pool.back();
  pool[pos] = last;
  index[last] = pos;
  pool.pop_back();
  index.erase(it);
}

}  // namespace

void BootstrapServer::add(NodeId id, NatType type) {
  sim::conflict::record_shared_write("BootstrapServer: add");
  registry_add(all_, index_all_, id);
  if (type == NatType::Public) registry_add(publics_, index_public_, id);
}

void BootstrapServer::remove(NodeId id) {
  sim::conflict::record_shared_write("BootstrapServer: remove");
  registry_remove(all_, index_all_, id);
  registry_remove(publics_, index_public_, id);
}

std::vector<NodeId> BootstrapServer::sample_from(
    const std::vector<NodeId>& pool, std::size_t n, NodeId self,
    sim::RngStream& rng) {
  std::vector<NodeId> picked =
      rng.sample(std::span<const NodeId>(pool), n + 1);
  std::erase(picked, self);
  if (picked.size() > n) picked.resize(n);
  return picked;
}

std::vector<NodeId> BootstrapServer::sample_public(
    std::size_t n, NodeId self, sim::RngStream& rng) const {
  return sample_from(publics_, n, self, rng);
}

std::vector<NodeId> BootstrapServer::sample_any(std::size_t n, NodeId self,
                                                sim::RngStream& rng) const {
  return sample_from(all_, n, self, rng);
}

}  // namespace croupier::net
