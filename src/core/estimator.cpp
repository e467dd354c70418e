#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace croupier::core {

namespace {

// Quantizes an exact hit count pair into two bytes, scaling proportionally
// so the encoded ratio matches the exact one to ~1/255.
std::pair<std::uint8_t, std::uint8_t> quantize(std::uint32_t pub,
                                               std::uint32_t priv) {
  const std::uint32_t largest = std::max(pub, priv);
  if (largest <= 0xff) {
    return {static_cast<std::uint8_t>(pub), static_cast<std::uint8_t>(priv)};
  }
  const double scale = 255.0 / static_cast<double>(largest);
  auto squeeze = [scale](std::uint32_t v) {
    const auto scaled =
        static_cast<std::uint32_t>(std::lround(static_cast<double>(v) * scale));
    // Never round a nonzero count down to zero: that would erase the
    // minority class entirely from the encoded ratio.
    return static_cast<std::uint8_t>(
        std::clamp<std::uint32_t>(v > 0 ? std::max(scaled, 1u) : 0u, 0u, 255u));
  };
  return {squeeze(pub), squeeze(priv)};
}

}  // namespace

void encode(wire::Writer& w, const EstimateEntry& e) {
  // Paper §VI carries 2 B origin ids, enough for every paper-scale
  // experiment. Worlds past 64Ki publics (the fig3 --mega sweep) escape
  // through the 0xffff sentinel to a 4 B id; origins below the sentinel
  // encode byte-identically to the fixed 2 B format.
  const auto [pub, priv] = quantize(e.pub_hits, e.priv_hits);
  if (e.origin < 0xffff) {
    w.u16(static_cast<std::uint16_t>(e.origin));
  } else {
    w.u16(0xffff);
    w.u32(e.origin);
  }
  w.u8(pub);
  w.u8(priv);
  w.u8(static_cast<std::uint8_t>(std::min<std::uint16_t>(e.age, 0xff)));
}

EstimateEntry decode_estimate(wire::Reader& r) {
  EstimateEntry e;
  e.origin = r.u16();
  if (e.origin == 0xffff) e.origin = r.u32();
  e.pub_hits = r.u8();
  e.priv_hits = r.u8();
  e.age = r.u8();
  return e;
}

void encode(wire::Writer& w, const std::vector<EstimateEntry>& v) {
  w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(v.size(), 0xff)));
  for (const auto& e : v) encode(w, e);
}

std::vector<EstimateEntry> decode_estimates(wire::Reader& r) {
  const std::size_t n = r.u8();
  std::vector<EstimateEntry> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    out.push_back(decode_estimate(r));
  }
  return out;
}

RatioEstimator::RatioEstimator(net::NodeId self, net::NatType type,
                               EstimatorConfig cfg)
    : self_(self), type_(type), cfg_(cfg) {
  CROUPIER_ASSERT(cfg_.local_history > 0);
  CROUPIER_ASSERT(cfg_.neighbour_history > 0);
  CROUPIER_ASSERT(cfg_.neighbour_history <=
                  EstimatorConfig::kMaxNeighbourHistory);
  CROUPIER_ASSERT(cfg_.share_limit > 0);
}

void RatioEstimator::begin_round() {
  // Age the neighbour history (every birth stamp is now one round older)
  // and expire entries older than γ. No cached age passes γ + 1, so the
  // 16-bit stamps never wrap into a wrong age.
  ++round_;
  std::erase_if(cache_, [this](const CacheEntry& e) {
    return age_of(e) > cfg_.neighbour_history;
  });

  // Roll the finished round's counters into the local history window
  // (Algorithm 2 lines 9-11) and keep the windowed sums incremental.
  history_.emplace_back(round_pub_hits_, round_priv_hits_);
  window_pub_ += round_pub_hits_;
  window_priv_ += round_priv_hits_;
  round_pub_hits_ = 0;
  round_priv_hits_ = 0;
  while (history_.size() > cfg_.local_history) {
    window_pub_ -= history_.front().first;
    window_priv_ -= history_.front().second;
    history_.pop_front();
  }
}

void RatioEstimator::count_request(net::NatType sender_type) {
  if (sender_type == net::NatType::Public) {
    ++round_pub_hits_;
  } else {
    ++round_priv_hits_;
  }
}

void RatioEstimator::merge(std::span<const EstimateEntry> entries) {
  for (const auto& incoming : entries) {
    if (incoming.origin == self_) continue;  // own estimate is kept locally
    if (incoming.pub_hits == 0 && incoming.priv_hits == 0) continue;
    if (incoming.age > cfg_.neighbour_history) continue;
    auto it = std::find_if(cache_.begin(), cache_.end(),
                           [&](const CacheEntry& e) {
                             return e.origin == incoming.origin;
                           });
    if (it == cache_.end()) {
      // Grow by an eighth, not push_back's doubling: caches plateau near
      // their steady size, where doubling left ~40% of the block unused.
      if (cache_.size() == cache_.capacity()) {
        cache_.reserve(cache_.size() + cache_.size() / 8 + 4);
      }
      cache_.push_back(stamped(incoming));
    } else if (incoming.age < age_of(*it)) {
      *it = stamped(incoming);
    }
  }
}

std::optional<EstimateEntry> RatioEstimator::own_entry() const {
  if (type_ != net::NatType::Public) return std::nullopt;
  if (window_pub_ + window_priv_ == 0) return std::nullopt;
  return EstimateEntry{self_, static_cast<std::uint32_t>(window_pub_),
                       static_cast<std::uint32_t>(window_priv_), 0};
}

std::vector<EstimateEntry> RatioEstimator::share(sim::RngStream& rng) const {
  const auto own = own_entry();
  const std::size_t from_cache =
      own.has_value() ? cfg_.share_limit - 1 : cfg_.share_limit;
  const std::vector<CacheEntry> picked =
      rng.sample(std::span<const CacheEntry>(cache_), from_cache);
  std::vector<EstimateEntry> out;
  out.reserve(picked.size() + (own.has_value() ? 1 : 0));
  for (const auto& e : picked) out.push_back(entry_of(e));
  if (own.has_value()) out.push_back(*own);
  return out;
}

std::vector<EstimateEntry> RatioEstimator::cached() const {
  std::vector<EstimateEntry> out;
  out.reserve(cache_.size());
  for (const auto& e : cache_) out.push_back(entry_of(e));
  return out;
}

double RatioEstimator::estimate() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& e : cache_) {
    sum += entry_of(e).ratio();
    ++n;
  }
  if (const auto own = local_estimate(); own.has_value()) {
    sum += *own;
    ++n;
  }
  if (n == 0) return 0.5;  // no information yet
  return sum / static_cast<double>(n);
}

std::optional<double> RatioEstimator::local_estimate() const {
  const auto own = own_entry();
  if (!own.has_value()) return std::nullopt;
  return own->ratio();
}

}  // namespace croupier::core
