#include "metrics/overhead.hpp"

#include "common/assert.hpp"

namespace croupier::metrics {

ClassLoad summarize_load(
    const net::TrafficMeter& meter,
    std::span<const std::pair<net::NodeId, net::NatType>> classes,
    sim::Duration window) {
  CROUPIER_ASSERT(window > 0);
  const double secs = sim::to_seconds(window);

  double pub_bytes = 0.0;
  double priv_bytes = 0.0;
  ClassLoad load;
  // Summand order follows `classes`, which callers pass sorted by node id
  // (World::class_map), so the sums are byte-stable.
  for (const auto& [id, type] : classes) {
    const auto t = meter.totals(id);
    if (type == net::NatType::Public) {
      pub_bytes += static_cast<double>(t.bytes_total());
      ++load.public_nodes;
    } else {
      priv_bytes += static_cast<double>(t.bytes_total());
      ++load.private_nodes;
    }
  }
  if (load.public_nodes > 0) {
    load.public_bytes_per_sec =
        pub_bytes / static_cast<double>(load.public_nodes) / secs;
  }
  if (load.private_nodes > 0) {
    load.private_bytes_per_sec =
        priv_bytes / static_cast<double>(load.private_nodes) / secs;
  }
  return load;
}

}  // namespace croupier::metrics
