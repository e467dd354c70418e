#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/assert.hpp"

namespace croupier::core {

namespace {

// Quantizes an exact hit count pair into two bytes, scaling proportionally
// so the quantized ratio matches the exact one to ~1/255.
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

// The first position of `origin` in `origins`, or origins.size(). Each
// block of 16 origins is tested with four 4-lane compares OR-ed together
// (the GCC/Clang vector extension: GCC does not vectorize an early-exit
// find), and only the block that holds the origin, or the tail, is
// scanned one origin at a time.
std::size_t find_origin(std::span<const net::NodeId> origins,
                        net::NodeId origin) {
  using Lanes = std::uint32_t __attribute__((vector_size(16)));
  static_assert(sizeof(net::NodeId) == sizeof(std::uint32_t));
  constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(std::uint32_t);
  constexpr std::size_t kBlock = 4 * kLanes;
  const auto load = [&](std::size_t at) {
    Lanes v;
    std::memcpy(&v, origins.data() + at, sizeof v);
    return v;
  };
  const Lanes key = {origin, origin, origin, origin};
  const std::size_t size = origins.size();
  std::size_t i = 0;
  for (; i + kBlock <= size; i += kBlock) {
    const auto hit = (load(i) == key) | (load(i + kLanes) == key) |
                     (load(i + 2 * kLanes) == key) |
                     (load(i + 3 * kLanes) == key);
    std::uint64_t halves[2];
    std::memcpy(halves, &hit, sizeof halves);
    if ((halves[0] | halves[1]) != 0) break;
  }
  for (; i < size; ++i) {
    if (origins[i] == origin) return i;
  }
  return size;
}

}  // namespace

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
  // and expire entries older than γ. No cached age passes γ + 1 <= 0xff,
  // so the 8-bit stamps never wrap into a wrong age.
  ++round_;
  expire_cache();

  // Roll the finished round's counters into the local history window
  // (Algorithm 2 lines 9-11) and keep the windowed sums incremental.
  const Hits finished{round_pub_hits_, round_priv_hits_};
  window_pub_ += finished.pub;
  window_priv_ += finished.priv;
  round_pub_hits_ = 0;
  round_priv_hits_ = 0;
  if (history_.size() < cfg_.local_history) {
    if (history_.empty()) history_.reserve(cfg_.local_history);
    history_.push_back(finished);
    return;
  }
  Hits& oldest = history_[history_next_];
  window_pub_ -= oldest.pub;
  window_priv_ -= oldest.priv;
  oldest = finished;
  if (++history_next_ == history_.size()) history_next_ = 0;
}

void RatioEstimator::expire_cache() {
  // A stable compaction of the three columns. The entries before the
  // first expired one stay where they are, and each later run of
  // survivors moves left with one copy per column.
  const auto expired = [this](std::size_t i) {
    return age_at(i) > cfg_.neighbour_history;
  };
  const std::size_t size = born_.size();
  std::size_t in = 0;
  while (in < size && !expired(in)) ++in;
  std::size_t out = in;
  while (in < size) {
    while (in < size && expired(in)) ++in;
    std::size_t end = in;
    while (end < size && !expired(end)) ++end;
    const auto shift = [&](auto& column) {
      std::copy(column.begin() + in, column.begin() + end,
                column.begin() + out);
    };
    shift(origins_);
    shift(hits_);
    shift(born_);
    out += end - in;
    in = end;
  }
  origins_.resize(out);
  hits_.resize(out);
  born_.resize(out);
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
    const WireHits hits{incoming.pub_hits, incoming.priv_hits};
    const std::size_t at = find_origin(origins_, incoming.origin);
    if (at == origins_.size()) {
      // Grow by an eighth, not push_back's doubling: caches plateau near
      // their steady size, where doubling left ~40% of the block unused.
      if (origins_.size() == origins_.capacity()) {
        const std::size_t grown = origins_.size() + origins_.size() / 8 + 4;
        origins_.reserve(grown);
        hits_.reserve(grown);
        born_.reserve(grown);
      }
      origins_.push_back(incoming.origin);
      hits_.push_back(hits);
      born_.push_back(birth_of(incoming));
    } else if (incoming.age < age_at(at)) {
      hits_[at] = hits;
      born_[at] = birth_of(incoming);
    }
  }
}

std::optional<EstimateEntry> RatioEstimator::own_entry() const {
  if (!local_estimate().has_value()) return std::nullopt;
  const auto [pub, priv] = quantize(static_cast<std::uint32_t>(window_pub_),
                                    static_cast<std::uint32_t>(window_priv_));
  return EstimateEntry{self_, pub, priv, 0};
}

std::vector<EstimateEntry> RatioEstimator::share(sim::RngStream& rng) const {
  const auto own = own_entry();
  const std::size_t from_cache =
      own.has_value() ? cfg_.share_limit - 1 : cfg_.share_limit;
  std::vector<EstimateEntry> out;
  out.reserve(std::min(from_cache, origins_.size()) +
              (own.has_value() ? 1 : 0));
  rng.sample_positions(origins_.size(), from_cache,
                       [&](std::size_t i) { out.push_back(entry_at(i)); });
  if (own.has_value()) out.push_back(*own);
  return out;
}

std::vector<EstimateEntry> RatioEstimator::cached() const {
  std::vector<EstimateEntry> out;
  out.reserve(origins_.size());
  for (std::size_t i = 0; i < origins_.size(); ++i) {
    out.push_back(entry_at(i));
  }
  return out;
}

double RatioEstimator::estimate() const {
  double sum = 0.0;
  for (const WireHits& h : hits_) sum += hit_ratio(h.pub, h.priv);
  std::size_t n = hits_.size();
  if (const auto own = local_estimate(); own.has_value()) {
    sum += *own;
    ++n;
  }
  if (n == 0) return 0.5;  // no information yet
  return sum / static_cast<double>(n);
}

std::optional<double> RatioEstimator::local_estimate() const {
  if (type_ != net::NatType::Public) return std::nullopt;
  if (window_pub_ + window_priv_ == 0) return std::nullopt;
  return hit_ratio(static_cast<std::uint32_t>(window_pub_),
                   static_cast<std::uint32_t>(window_priv_));
}

}  // namespace croupier::core
