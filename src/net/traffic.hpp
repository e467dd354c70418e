// Per-node traffic accounting.
//
// The network charges every packet's full datagram size (payload encoded
// through wire/ plus UDP+IPv4 headers) to the sender at send time and to
// the receiver at delivery time. Figure 7a of the paper is regenerated by
// resetting the meter at the start of a measurement window and reading
// bytes-per-second per node class at its end.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/address.hpp"
#include "sim/conflict.hpp"

namespace croupier::net {

/// Fixed protocol overhead charged per packet (UDP 8 B + IPv4 20 B).
constexpr std::size_t kUdpIpHeaderBytes = 28;

struct TrafficTotals {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;

  /// Total load (both directions), the per-node quantity fig. 7a plots.
  [[nodiscard]] std::uint64_t bytes_total() const {
    return bytes_sent + bytes_received;
  }
};

class TrafficMeter {
 public:
  void on_send(NodeId node, std::size_t bytes) {
    sim::conflict::record_shared_write("TrafficMeter");
    auto& t = per_node_[node];
    t.bytes_sent += bytes;
    ++t.msgs_sent;
  }

  void on_deliver(NodeId node, std::size_t bytes) {
    sim::conflict::record_shared_write("TrafficMeter");
    auto& t = per_node_[node];
    t.bytes_received += bytes;
    ++t.msgs_received;
  }

  /// Totals for one node (zeros if it never sent or received).
  [[nodiscard]] TrafficTotals totals(NodeId node) const {
    const auto it = per_node_.find(node);
    return it == per_node_.end() ? TrafficTotals{} : it->second;
  }

  /// Every node's totals summed. The sums are exact integers, so the
  /// map's visiting order cannot change them.
  [[nodiscard]] TrafficTotals sum() const {
    TrafficTotals s;
    for (const auto& [node, t] : per_node_) {
      s.bytes_sent += t.bytes_sent;
      s.bytes_received += t.bytes_received;
      s.msgs_sent += t.msgs_sent;
      s.msgs_received += t.msgs_received;
    }
    return s;
  }

  /// The map itself, visited in hash order. Only the suite's traced
  /// replica reads it; everything else reads totals() or sum().
  [[nodiscard]] const std::unordered_map<NodeId, TrafficTotals>& per_node()
      const {
    return per_node_;
  }

  /// Starts a fresh measurement window.
  void reset() {
    sim::conflict::record_shared_write("TrafficMeter");
    per_node_.clear();
  }

 private:
  std::unordered_map<NodeId, TrafficTotals> per_node_;
};

}  // namespace croupier::net
