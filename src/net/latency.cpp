#include "net/latency.hpp"

#include <algorithm>
#include <cmath>

namespace croupier::net {

KingLatencyModel::KingLatencyModel(std::uint64_t seed, Params params)
    : seed_(seed), params_(params) {}

CoordinateLatencyModel::CoordinateLatencyModel(std::uint64_t seed)
    : seed_(seed) {}

CoordinateLatencyModel::CoordinateLatencyModel(std::uint64_t seed,
                                               const Params& params)
    : seed_(seed), params_(params) {}

std::pair<double, double> CoordinateLatencyModel::position(
    NodeId node) const {
  // Three "continents" at fixed plane positions; each node hashes to one
  // and scatters around its centre with a Gaussian.
  static constexpr std::pair<double, double> kCentres[3] = {
      {0.2, 0.3}, {0.7, 0.25}, {0.55, 0.8}};
  std::uint64_t h = seed_ ^ (0x9e3779b97f4a7c15ULL * (node + 1));
  const std::uint64_t a = croupier::sim::splitmix64(h);
  const std::uint64_t b = croupier::sim::splitmix64(h);
  const auto& centre = kCentres[a % 3];
  const double u1 =
      (static_cast<double>(a >> 11) + 0.5) * 0x1.0p-53;
  const double u2 =
      (static_cast<double>(b >> 11) + 0.5) * 0x1.0p-53;
  const double radius =
      params_.cluster_stddev * std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * 3.141592653589793 * u2;
  const double x = std::clamp(centre.first + radius * std::cos(angle), 0.0, 1.0);
  const double y = std::clamp(centre.second + radius * std::sin(angle), 0.0, 1.0);
  return {x, y};
}

sim::Duration CoordinateLatencyModel::base_latency(NodeId a, NodeId b) const {
  if (a == b) return params_.min_latency;
  const auto [ax, ay] = position(a);
  const auto [bx, by] = position(b);
  const double dist =
      std::sqrt((ax - bx) * (ax - bx) + (ay - by) * (ay - by));
  const double diagonal = std::sqrt(2.0);
  const double ms =
      params_.last_mile_ms + params_.plane_ms * dist / diagonal;
  const auto raw = static_cast<sim::Duration>(ms * 1000.0);
  return std::max(raw, params_.min_latency);
}

sim::Duration CoordinateLatencyModel::sample(NodeId from, NodeId to,
                                             sim::RngStream& rng) {
  const sim::Duration base = base_latency(from, to);
  if (params_.jitter_fraction <= 0.0) return base;
  const double jitter =
      1.0 + params_.jitter_fraction * (2.0 * rng.next_double() - 1.0);
  const auto jittered =
      static_cast<sim::Duration>(static_cast<double>(base) * jitter);
  return std::max(jittered, params_.min_latency);
}

namespace {

// Deterministic per-pair 64-bit hash (order independent).
std::uint64_t pair_hash(std::uint64_t seed, NodeId a, NodeId b) {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  std::uint64_t x =
      seed ^ (static_cast<std::uint64_t>(hi) << 32 | static_cast<std::uint64_t>(lo));
  return croupier::sim::splitmix64(x);
}

}  // namespace

sim::Duration KingLatencyModel::base_latency(NodeId a, NodeId b) const {
  if (a == b) return params_.min_latency;
  std::uint64_t h = pair_hash(seed_, a, b);
  // Two deterministic uniforms -> one standard normal via Box-Muller.
  std::uint64_t s = h;
  const double u1 =
      (static_cast<double>(croupier::sim::splitmix64(s) >> 11) + 0.5) *
      0x1.0p-53;
  const double u2 =
      (static_cast<double>(croupier::sim::splitmix64(s) >> 11) + 0.5) *
      0x1.0p-53;
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.141592653589793 * u2);
  const double ms = params_.median_ms * std::exp(params_.sigma * z);
  const auto raw = static_cast<sim::Duration>(ms * 1000.0);  // ms -> us
  return std::clamp(raw, params_.min_latency, params_.max_latency);
}

sim::Duration KingLatencyModel::sample(NodeId from, NodeId to,
                                       sim::RngStream& rng) {
  const sim::Duration base = base_latency(from, to);
  if (params_.jitter_fraction <= 0.0) return base;
  const double jitter =
      1.0 + params_.jitter_fraction * (2.0 * rng.next_double() - 1.0);
  const auto jittered =
      static_cast<sim::Duration>(static_cast<double>(base) * jitter);
  return std::clamp(jittered, params_.min_latency, params_.max_latency);
}

}  // namespace croupier::net
