// Node descriptors: the unit of gossip in every PSS here.
//
// A descriptor names a node, records its NAT classification, and carries
// an age in gossip rounds since the descriptor was created by its subject
// (paper §VI: "a node descriptor contains the node's address, its NAT
// type, and a timestamp"). The wire encoding is sized like a real
// deployment's (IPv4 address + port + type + age = 8 bytes) so overhead
// measurements are honest.
#pragma once

#include <cstdint>

#include "net/address.hpp"
#include "wire/wire.hpp"

namespace croupier::pss {

using net::NatType;
using net::NodeId;

struct NodeDescriptor {
  NodeId id = net::kNilNode;
  NatType nat_type = NatType::Public;
  std::uint16_t age = 0;  // rounds since creation; saturates

  /// A fresh descriptor for the subject node itself.
  static NodeDescriptor self(NodeId id, NatType type) {
    return NodeDescriptor{id, type, 0};
  }

  void bump_age() {
    if (age < 0xffff) ++age;
  }

  friend bool operator==(const NodeDescriptor&,
                         const NodeDescriptor&) = default;
};

/// Bytes one descriptor occupies on the wire.
constexpr std::size_t kDescriptorWireBytes = 8;

/// The 8 bytes every descriptor here ships, as a deployment would: the
/// subject's endpoint (4 B address + 2 B port), 1 B NAT type and 1 B age
/// saturated at 255. NodeDescriptor, NylonDescriptor and GozarDescriptor
/// all run it; `D` is the descriptor, const when writing.
template <typename IO, typename D>
void descriptor_layout(IO& io, D& d) {
  wire::endpoint(io, d.id);
  layout(io, d.nat_type);
  wire::saturated_age(io, d.age);
}

template <typename IO>
void layout(IO& io, wire::Field<IO, NodeDescriptor> d) {
  descriptor_layout(io, d);
}

}  // namespace croupier::pss
