#include "pss/descriptor.hpp"

#include <algorithm>

namespace croupier::pss {

void encode(wire::Writer& w, const NodeDescriptor& d) {
  // 4 B address + 2 B port stand-in + 1 B NAT type + 1 B age (saturated),
  // matching what a deployment would ship per entry.
  w.u32(d.id);
  w.u16(static_cast<std::uint16_t>(0x2710));  // fixed gossip port
  w.u8(static_cast<std::uint8_t>(d.nat_type));
  w.u8(static_cast<std::uint8_t>(std::min<std::uint16_t>(d.age, 0xff)));
}

NodeDescriptor decode_descriptor(wire::Reader& r) {
  NodeDescriptor d;
  d.id = r.u32();
  (void)r.u16();  // port
  d.nat_type = static_cast<NatType>(r.u8());
  d.age = r.u8();
  return d;
}

void encode(wire::Writer& w, const std::vector<NodeDescriptor>& v) {
  w.list_count(v.size());
  for (const auto& d : v) encode(w, d);
}

std::vector<NodeDescriptor> decode_descriptors(wire::Reader& r) {
  const std::size_t n = r.u8();
  std::vector<NodeDescriptor> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    out.push_back(decode_descriptor(r));
  }
  return out;
}

}  // namespace croupier::pss
