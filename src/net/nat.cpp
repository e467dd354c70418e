#include "net/nat.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/assert.hpp"

namespace croupier::net {

std::size_t NatBox::probe(NodeId peer) const {
  const std::size_t mask = slots_.size() - 1;
  // Fibonacci hashing: the product's upper half mixes every id bit.
  std::size_t i = static_cast<std::size_t>(
                      (std::uint64_t{peer} * 0x9e3779b97f4a7c15ull) >> 32) &
                  mask;
  while (slots_[i].peer != peer && slots_[i].peer != kNilNode) {
    i = (i + 1) & mask;
  }
  return i;
}

void NatBox::rebuild(sim::SimTime now) {
  const std::size_t live = live_entries(now);
  std::vector<Mapping> old = std::exchange(
      slots_, std::vector<Mapping>(
                  std::bit_ceil(std::max<std::size_t>(8, 2 * (live + 1)))));
  used_ = live;
  for (const Mapping& m : old) {
    if (m.peer != kNilNode && entry_live(now, m.last)) slots_[probe(m.peer)] = m;
  }
}

void NatBox::on_outbound(sim::SimTime now, NodeId dst) {
  CROUPIER_ASSERT_MSG(dst != kNilNode, "no mapping toward kNilNode");
  last_any_outbound_ = now;
  any_outbound_ever_ = true;
  if (!slots_.empty()) {
    Mapping& slot = slots_[probe(dst)];
    if (slot.peer == dst) {
      slot.last = now;
      return;
    }
    if (4 * (used_ + 1) <= 3 * slots_.size()) {
      slot = Mapping{dst, now};
      ++used_;
      return;
    }
  }
  // This insert would push the load above 3/4 (or the table is still
  // unallocated): drop the expired mappings and resize first.
  rebuild(now);
  slots_[probe(dst)] = Mapping{dst, now};
  ++used_;
}

bool NatBox::allows_inbound(sim::SimTime now, NodeId src) const {
  if (cfg_.behaves_public()) return true;
  switch (cfg_.filtering) {
    case FilteringPolicy::EndpointIndependent:
      // The socket's single mapping is held open by *any* outbound
      // traffic; once live, any remote endpoint passes the filter.
      return any_outbound_ever_ && entry_live(now, last_any_outbound_);
    case FilteringPolicy::AddressDependent:
    case FilteringPolicy::AddressAndPortDependent: {
      // kNilNode marks empty slots; no mapping toward it ever exists.
      if (slots_.empty() || src == kNilNode) return false;
      const Mapping& m = slots_[probe(src)];
      return m.peer == src && entry_live(now, m.last);
    }
  }
  return false;
}

std::size_t NatBox::live_entries(sim::SimTime now) const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(), [&](const Mapping& m) {
        return m.peer != kNilNode && entry_live(now, m.last);
      }));
}

}  // namespace croupier::net
