// Per-node traffic accounting.
//
// The network charges every packet's full datagram size (payload encoded
// through wire/ plus UDP+IPv4 headers) to the sender at send time and to
// the receiver at delivery time. Figure 7a of the paper is regenerated by
// resetting the meter at the start of a measurement window and reading
// bytes-per-second per node class at its end.
//
// The totals form a dense array indexed by node id, grown to the largest
// id charged: World numbers its nodes densely from 1. Charges run on the
// serial path only: inside a parallel batch the network routes them
// through Simulator::defer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

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

  bool operator==(const TrafficTotals&) const = default;
};

class TrafficMeter {
 public:
  void on_send(NodeId node, std::size_t bytes) {
    sim::conflict::record_shared_write("TrafficMeter");
    TrafficTotals& t = slot(node);
    t.bytes_sent += bytes;
    ++t.msgs_sent;
  }

  void on_deliver(NodeId node, std::size_t bytes) {
    sim::conflict::record_shared_write("TrafficMeter");
    TrafficTotals& t = slot(node);
    t.bytes_received += bytes;
    ++t.msgs_received;
  }

  /// Totals for one node (zeros if it never sent or received).
  [[nodiscard]] TrafficTotals totals(NodeId node) const {
    return node < per_node_.size() ? per_node_[node] : TrafficTotals{};
  }

  /// True when no node was charged since construction or the last reset().
  [[nodiscard]] bool empty() const { return per_node_.empty(); }

  /// Every node's totals summed.
  [[nodiscard]] TrafficTotals sum() const {
    TrafficTotals s;
    for (const TrafficTotals& t : per_node_) {
      s.bytes_sent += t.bytes_sent;
      s.bytes_received += t.bytes_received;
      s.msgs_sent += t.msgs_sent;
      s.msgs_received += t.msgs_received;
    }
    return s;
  }

  /// Every charged node's totals, in id order. Only the suite's traced
  /// replica reads it; everything else reads totals() or sum().
  [[nodiscard]] std::vector<std::pair<NodeId, TrafficTotals>> per_node()
      const {
    std::vector<std::pair<NodeId, TrafficTotals>> charged;
    for (std::size_t id = 0; id < per_node_.size(); ++id) {
      const TrafficTotals& t = per_node_[id];
      if (t.msgs_sent + t.msgs_received == 0) continue;
      charged.emplace_back(static_cast<NodeId>(id), t);
    }
    return charged;
  }

  /// Starts a fresh measurement window.
  void reset() {
    sim::conflict::record_shared_write("TrafficMeter");
    per_node_.clear();
  }

 private:
  TrafficTotals& slot(NodeId node) {
    if (node >= per_node_.size()) per_node_.resize(std::size_t{node} + 1);
    return per_node_[node];
  }

  /// Indexed by node id; an id never charged holds zeros.
  std::vector<TrafficTotals> per_node_;
};

}  // namespace croupier::net
