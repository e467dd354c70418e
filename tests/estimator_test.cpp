// Ratio estimator tests: the maths of paper equations (1)-(9) on
// hand-computed cases, window semantics for α and γ, the byte
// quantization of a node's own entry and the wire image of every shared
// one, and a twin run against the vector-of-structs estimator it
// replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "core/estimator.hpp"

namespace croupier::core {
namespace {

EstimatorConfig cfg(std::size_t alpha = 25, std::size_t gamma = 50,
                    std::size_t share = 10) {
  return EstimatorConfig{alpha, gamma, share};
}

TEST(EstimateEntry, RatioDefinition) {
  EXPECT_DOUBLE_EQ((EstimateEntry{1, 1, 4, 0}).ratio(), 0.2);
  EXPECT_DOUBLE_EQ((EstimateEntry{1, 5, 0, 0}).ratio(), 1.0);
  EXPECT_DOUBLE_EQ((EstimateEntry{1, 0, 0, 0}).ratio(), 0.0);
}

TEST(EstimateEntry, WireSizeIsFiveBytes) {
  wire::Writer w;
  layout(w, EstimateEntry{7, 10, 40, 3});
  EXPECT_EQ(w.size(), kEstimateWireBytes);
}

TEST(EstimateEntry, RoundTripSmallCounts) {
  wire::Writer w;
  layout(w, EstimateEntry{7, 10, 40, 3});
  wire::Reader r(w.data());
  EstimateEntry back;
  layout(r, back);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back, (EstimateEntry{7, 10, 40, 3}));
}

TEST(EstimateEntry, WideOriginEscapesWithoutPerturbingNarrowOnes) {
  // Origins past 16 bits (million-node worlds) escape through the
  // 0xffff sentinel to a 4 B id; anything below the sentinel must keep
  // the paper's fixed 5-byte layout bit-for-bit.
  wire::Writer narrow;
  layout(narrow, EstimateEntry{0xfffe, 10, 40, 3});
  EXPECT_EQ(narrow.size(), kEstimateWireBytes);

  for (const net::NodeId origin : {0xffffu, 0x10000u, 1'000'000u}) {
    wire::Writer w;
    layout(w, EstimateEntry{origin, 10, 40, 3});
    EXPECT_EQ(w.size(), kEstimateWireBytes + 4) << origin;
    wire::Reader r(w.data());
    EstimateEntry back;
    layout(r, back);
    EXPECT_TRUE(r.exhausted()) << origin;
    EXPECT_EQ(back, (EstimateEntry{origin, 10, 40, 3})) << origin;
  }
}

TEST(EstimateEntry, ListRoundTrip) {
  std::vector<EstimateEntry> v{{1, 2, 8, 0}, {2, 5, 5, 3}};
  wire::Writer w;
  layout(w, v);
  wire::Reader r(w.data());
  std::vector<EstimateEntry> back;
  layout(r, back);
  EXPECT_EQ(back, v);
  EXPECT_TRUE(r.exhausted());
}

TEST(RatioEstimator, NoInformationFallsBackToHalf) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  EXPECT_DOUBLE_EQ(e.estimate(), 0.5);
}

TEST(RatioEstimator, LocalEstimateFromHits) {
  RatioEstimator e(1, net::NatType::Public, cfg());
  // Round 1: one public, four private requests -> E = 0.2 (eq. 6).
  e.count_request(net::NatType::Public);
  for (int i = 0; i < 4; ++i) e.count_request(net::NatType::Private);
  e.begin_round();
  ASSERT_TRUE(e.local_estimate().has_value());
  EXPECT_DOUBLE_EQ(*e.local_estimate(), 0.2);
  EXPECT_DOUBLE_EQ(e.estimate(), 0.2);  // eq. 8 with empty M
}

TEST(RatioEstimator, PrivateNodeHasNoLocalEstimate) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  e.count_request(net::NatType::Public);  // shouldn't happen, but tolerate
  e.begin_round();
  EXPECT_FALSE(e.local_estimate().has_value());
}

TEST(RatioEstimator, WindowSumsAcrossRounds) {
  RatioEstimator e(1, net::NatType::Public, cfg(/*alpha=*/3));
  // Rounds with (pub, priv): (1,1), (0,2), (3,1) -> window 4/9... sums:
  // pub=4, priv=4 -> wait: 1+0+3=4 pub, 1+2+1=4 priv -> E = 0.5.
  e.count_request(net::NatType::Public);
  e.count_request(net::NatType::Private);
  e.begin_round();
  e.count_request(net::NatType::Private);
  e.count_request(net::NatType::Private);
  e.begin_round();
  for (int i = 0; i < 3; ++i) e.count_request(net::NatType::Public);
  e.count_request(net::NatType::Private);
  e.begin_round();
  EXPECT_DOUBLE_EQ(*e.local_estimate(), 0.5);
}

TEST(RatioEstimator, AlphaWindowEvictsOldRounds) {
  RatioEstimator e(1, net::NatType::Public, cfg(/*alpha=*/2));
  // Round 1: all public. Rounds 2,3: all private. With α=2 only the last
  // two rounds count -> E = 0.
  e.count_request(net::NatType::Public);
  e.begin_round();
  e.count_request(net::NatType::Private);
  e.begin_round();
  e.count_request(net::NatType::Private);
  e.begin_round();
  EXPECT_DOUBLE_EQ(*e.local_estimate(), 0.0);
}

TEST(RatioEstimator, MergeCachesForeignEntries) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  const std::vector<EstimateEntry> in{{2, 1, 4, 0}, {3, 1, 3, 0}};
  e.merge(in);
  EXPECT_EQ(e.cached_count(), 2u);
  // eq. 9: mean of 0.2 and 0.25.
  EXPECT_DOUBLE_EQ(e.estimate(), (0.2 + 0.25) / 2.0);
}

TEST(RatioEstimator, MergeSkipsOwnOrigin) {
  RatioEstimator e(1, net::NatType::Public, cfg());
  const std::vector<EstimateEntry> in{{1, 9, 1, 0}};
  e.merge(in);
  EXPECT_EQ(e.cached_count(), 0u);
}

TEST(RatioEstimator, MergeSkipsEmptyEntries) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  const std::vector<EstimateEntry> in{{2, 0, 0, 0}};
  e.merge(in);
  EXPECT_EQ(e.cached_count(), 0u);
}

TEST(RatioEstimator, MergeKeepsNewerPerOrigin) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  e.merge(std::vector<EstimateEntry>{{2, 1, 1, 5}});
  e.merge(std::vector<EstimateEntry>{{2, 3, 1, 2}});  // newer
  ASSERT_EQ(e.cached_count(), 1u);
  EXPECT_EQ(e.cached()[0].pub_hits, 3u);
  e.merge(std::vector<EstimateEntry>{{2, 9, 9, 7}});  // older: ignored
  EXPECT_EQ(e.cached()[0].pub_hits, 3u);
}

// merge() finds an origin by comparing blocks of 16 origins at once and
// then scanning the tail. Caches of 1 to 40 origins cover no full block,
// one and two full blocks and every tail length; refreshing the origin
// at each position must update that slot alone. Origins go up to
// 0xffffffff - 1, and some share their low 16 bits with a narrow one.
TEST(RatioEstimator, MergeFindsOriginAtEveryPosition) {
  const auto origin_at = [](std::size_t i) -> net::NodeId {
    const auto n = static_cast<net::NodeId>(i);
    switch (i % 4) {
      case 0: return 2 + n;
      case 1: return 0xffff + n;
      case 2: return 0x10000 + n;  // low bits of the narrow origin at i - 2
      default: return 0xfffffffe - n;
    }
  };
  for (std::size_t size = 1; size <= 40; ++size) {
    std::vector<EstimateEntry> fill;
    for (std::size_t i = 0; i < size; ++i) {
      fill.push_back({origin_at(i), 1, 4, 5});
    }
    for (std::size_t pos = 0; pos < size; ++pos) {
      RatioEstimator e(1, net::NatType::Private, cfg());
      e.merge(fill);
      std::vector<EstimateEntry> expected = e.cached();
      ASSERT_EQ(expected.size(), size);
      const EstimateEntry younger{origin_at(pos), 7, 3, 2};
      e.merge(std::vector<EstimateEntry>{younger});
      expected[pos] = younger;
      EXPECT_EQ(e.cached(), expected) << "size " << size << ", pos " << pos;
    }
  }
}

TEST(RatioEstimator, GammaExpiresCachedEntries) {
  RatioEstimator e(1, net::NatType::Private, cfg(/*alpha=*/5, /*gamma=*/3));
  e.merge(std::vector<EstimateEntry>{{2, 1, 4, 0}});
  for (int i = 0; i < 3; ++i) e.begin_round();
  EXPECT_EQ(e.cached_count(), 1u);  // age 3 == γ: still valid
  e.begin_round();
  EXPECT_EQ(e.cached_count(), 0u);  // age 4 > γ: dropped
}

TEST(RatioEstimator, MergeRejectsEntriesBeyondGamma) {
  RatioEstimator e(1, net::NatType::Private, cfg(/*alpha=*/5, /*gamma=*/3));
  e.merge(std::vector<EstimateEntry>{{2, 1, 4, 9}});
  EXPECT_EQ(e.cached_count(), 0u);
}

TEST(RatioEstimator, PublicAveragesOwnPlusCache) {
  RatioEstimator e(1, net::NatType::Public, cfg());
  e.count_request(net::NatType::Public);  // own E = 1.0
  e.begin_round();
  e.merge(std::vector<EstimateEntry>{{2, 0, 1, 0}});  // foreign E = 0.0
  // eq. 8: (0.0 + 1.0) / (1 + 1) = 0.5.
  EXPECT_DOUBLE_EQ(e.estimate(), 0.5);
}

/// A public node whose α-window holds `pub` public and `priv` private
/// hits, all counted in its first round.
RatioEstimator public_with_window(std::uint32_t pub, std::uint32_t priv,
                                  EstimatorConfig config = cfg()) {
  RatioEstimator e(1, net::NatType::Public, config);
  for (std::uint32_t i = 0; i < pub; ++i) {
    e.count_request(net::NatType::Public);
  }
  for (std::uint32_t i = 0; i < priv; ++i) {
    e.count_request(net::NatType::Private);
  }
  e.begin_round();
  return e;
}

/// The own entry share() appends (the last one) when the cache is empty.
EstimateEntry own_shared_entry(const RatioEstimator& e) {
  sim::RngStream rng(1);
  const auto shared = e.share(rng);
  EXPECT_FALSE(shared.empty());
  return shared.empty() ? EstimateEntry{} : shared.back();
}

TEST(RatioEstimator, QuantizationPreservesRatio) {
  // 100 / 400 exceeds the byte range on the private side; the own entry
  // must scale both counts, keeping the ratio at 0.2 within 1/255, while
  // E_i stays exact.
  const auto e = public_with_window(100, 400);
  const EstimateEntry own = own_shared_entry(e);
  EXPECT_EQ(own.priv_hits, 255u);
  EXPECT_NEAR(own.ratio(), 0.2, 1.0 / 255.0);
  EXPECT_EQ(e.local_estimate(), 0.2);
}

TEST(RatioEstimator, QuantizationNeverErasesMinority) {
  const EstimateEntry own = own_shared_entry(public_with_window(1, 10000));
  EXPECT_GE(own.pub_hits, 1u);  // minority class must survive
  EXPECT_EQ(own.priv_hits, 255u);
}

// Everything a node shares is exactly what the wire carries: a window of
// 300 public and 1200 private hits goes out as (64, 255), and the
// entries drawn from a cache merged at every age 0..254 (γ = 254, the
// largest), with origins narrow and escaped past 16 bits, survive
// encode and decode unchanged. E_i stays exact.
TEST(RatioEstimator, SharedEntriesAreTheirWireImage) {
  constexpr std::size_t kGamma = EstimatorConfig::kMaxNeighbourHistory;
  const EstimatorConfig config{25, kGamma, EstimatorConfig::kMaxShareLimit};
  auto e = public_with_window(300, 1200, config);
  std::vector<EstimateEntry> cache;
  for (std::size_t age = 0; age <= kGamma; ++age) {
    cache.push_back({static_cast<net::NodeId>(2 + 300 * age),
                     static_cast<std::uint8_t>(age % 200 + 1),
                     static_cast<std::uint8_t>(255 - age),
                     static_cast<std::uint8_t>(age)});
  }
  e.merge(cache);
  ASSERT_EQ(e.cached_count(), kGamma + 1);

  sim::RngStream rng(5);
  const auto shared = e.share(rng);
  ASSERT_EQ(shared.size(), EstimatorConfig::kMaxShareLimit);
  for (const EstimateEntry& entry : shared) {
    wire::Writer w;
    layout(w, entry);
    wire::Reader r(w.data());
    EstimateEntry back;
    layout(r, back);
    EXPECT_EQ(back, entry) << "origin " << entry.origin;
    EXPECT_TRUE(r.exhausted());
  }
  EXPECT_EQ(shared.back(), (EstimateEntry{1, 64, 255, 0}));
  EXPECT_EQ(e.local_estimate(), 0.2);
}

TEST(RatioEstimator, ShareIncludesOwnEntryForPublic) {
  RatioEstimator e(1, net::NatType::Public, cfg());
  e.count_request(net::NatType::Private);
  e.begin_round();
  sim::RngStream rng(1);
  const auto shared = e.share(rng);
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_EQ(shared[0].origin, 1u);
  EXPECT_EQ(shared[0].age, 0u);
}

TEST(RatioEstimator, ShareOmitsOwnEntryForPrivate) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  e.begin_round();
  sim::RngStream rng(1);
  EXPECT_TRUE(e.share(rng).empty());
}

TEST(RatioEstimator, ShareRespectsLimit) {
  RatioEstimator e(1, net::NatType::Public, cfg(25, 50, /*share=*/5));
  e.count_request(net::NatType::Public);
  e.begin_round();
  std::vector<EstimateEntry> many;
  for (net::NodeId i = 2; i < 30; ++i) many.push_back({i, 1, 4, 0});
  e.merge(many);
  sim::RngStream rng(1);
  const auto shared = e.share(rng);
  EXPECT_EQ(shared.size(), 5u);
  // Own entry always rides along for public nodes.
  const bool has_own = std::any_of(shared.begin(), shared.end(),
                                   [](const auto& s) { return s.origin == 1; });
  EXPECT_TRUE(has_own);
}

TEST(RatioEstimator, CacheAgesWithRounds) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  e.merge(std::vector<EstimateEntry>{{2, 1, 4, 0}});
  e.begin_round();
  e.begin_round();
  ASSERT_EQ(e.cached_count(), 1u);
  EXPECT_EQ(e.cached()[0].age, 2u);
}

TEST(RatioEstimator, TwoNodeGossipConverges) {
  // A public node's local estimate propagates to a private node and both
  // agree on ω.
  RatioEstimator pub(1, net::NatType::Public, cfg());
  RatioEstimator priv(2, net::NatType::Private, cfg());
  sim::RngStream rng(1);
  for (int round = 0; round < 10; ++round) {
    pub.count_request(net::NatType::Public);
    for (int i = 0; i < 4; ++i) pub.count_request(net::NatType::Private);
    pub.begin_round();
    priv.begin_round();
    priv.merge(pub.share(rng));
  }
  EXPECT_NEAR(pub.estimate(), 0.2, 1e-9);
  EXPECT_NEAR(priv.estimate(), 0.2, 1e-9);
}

// Property sweep: the estimator's local window estimate equals the exact
// ratio of injected hits for arbitrary (pub, priv) patterns.
class EstimatorRatioSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(EstimatorRatioSweep, WindowRatioExact) {
  const auto [pub_per_round, priv_per_round] = GetParam();
  RatioEstimator e(1, net::NatType::Public, cfg(/*alpha=*/10));
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < pub_per_round; ++i) {
      e.count_request(net::NatType::Public);
    }
    for (int i = 0; i < priv_per_round; ++i) {
      e.count_request(net::NatType::Private);
    }
    e.begin_round();
  }
  const double expected =
      static_cast<double>(pub_per_round) /
      static_cast<double>(pub_per_round + priv_per_round);
  ASSERT_TRUE(e.local_estimate().has_value());
  EXPECT_NEAR(*e.local_estimate(), expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    HitPatterns, EstimatorRatioSweep,
    ::testing::Values(std::pair{1, 4}, std::pair{1, 1}, std::pair{3, 1},
                      std::pair{1, 9}, std::pair{7, 3}));

/// Quantizes a window's counts into the byte range, scaling both so the
/// larger becomes 255 and never rounding a nonzero count to zero.
std::pair<std::uint8_t, std::uint8_t> ref_quantize(std::uint64_t pub,
                                                   std::uint64_t priv) {
  const std::uint64_t largest = std::max(pub, priv);
  if (largest <= 0xff) {
    return {static_cast<std::uint8_t>(pub), static_cast<std::uint8_t>(priv)};
  }
  const double scale = 255.0 / static_cast<double>(largest);
  const auto squeeze = [scale](std::uint64_t v) {
    if (v == 0) return std::uint8_t{0};
    const long scaled = std::lround(static_cast<double>(v) * scale);
    return static_cast<std::uint8_t>(std::clamp(scaled, 1L, 255L));
  };
  return {squeeze(pub), squeeze(priv)};
}

/// The estimator's semantics without its layout, as before birth stamps:
/// a vector of EstimateEntry whose ages begin_round() bumps (saturating
/// at 0xff), shared from a copy of the whole cache with the own entry
/// quantized. The stamped RatioEstimator must match it call for call.
class RefEstimator {
 public:
  RefEstimator(net::NodeId self, net::NatType type, EstimatorConfig cfg)
      : self_(self), type_(type), cfg_(cfg) {}

  void begin_round() {
    for (auto& e : cache_) {
      if (e.age < 0xff) ++e.age;
    }
    std::erase_if(cache_, [this](const EstimateEntry& e) {
      return e.age > cfg_.neighbour_history;
    });
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

  void count_request(net::NatType sender_type) {
    if (sender_type == net::NatType::Public) {
      ++round_pub_hits_;
    } else {
      ++round_priv_hits_;
    }
  }

  void merge(std::span<const EstimateEntry> entries) {
    for (const auto& incoming : entries) {
      if (incoming.origin == self_) continue;
      if (incoming.pub_hits == 0 && incoming.priv_hits == 0) continue;
      if (incoming.age > cfg_.neighbour_history) continue;
      auto it = std::find_if(cache_.begin(), cache_.end(),
                             [&](const EstimateEntry& e) {
                               return e.origin == incoming.origin;
                             });
      if (it == cache_.end()) {
        cache_.push_back(incoming);
      } else if (incoming.age < it->age) {
        *it = incoming;
      }
    }
  }

  [[nodiscard]] std::vector<EstimateEntry> share(sim::RngStream& rng) const {
    const auto own = own_entry();
    const std::size_t from_cache =
        own.has_value() ? cfg_.share_limit - 1 : cfg_.share_limit;
    std::vector<EstimateEntry> out = cache_;
    out.resize(rng.sample_prefix(std::span<EstimateEntry>(out), from_cache));
    if (own.has_value()) out.push_back(*own);
    return out;
  }

  [[nodiscard]] double estimate() const {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& e : cache_) {
      sum += e.ratio();
      ++n;
    }
    if (const auto own = local_estimate(); own.has_value()) {
      sum += *own;
      ++n;
    }
    if (n == 0) return 0.5;
    return sum / static_cast<double>(n);
  }

  [[nodiscard]] std::optional<double> local_estimate() const {
    if (type_ != net::NatType::Public) return std::nullopt;
    if (window_pub_ + window_priv_ == 0) return std::nullopt;
    return static_cast<double>(window_pub_) /
           static_cast<double>(window_pub_ + window_priv_);
  }

  [[nodiscard]] const std::vector<EstimateEntry>& cached() const {
    return cache_;
  }

 private:
  [[nodiscard]] std::optional<EstimateEntry> own_entry() const {
    if (!local_estimate().has_value()) return std::nullopt;
    const auto [pub, priv] = ref_quantize(window_pub_, window_priv_);
    return EstimateEntry{self_, pub, priv, 0};
  }

  net::NodeId self_;
  net::NatType type_;
  EstimatorConfig cfg_;
  std::uint32_t round_pub_hits_ = 0;
  std::uint32_t round_priv_hits_ = 0;
  std::deque<std::pair<std::uint32_t, std::uint32_t>> history_;
  std::uint64_t window_pub_ = 0;
  std::uint64_t window_priv_ = 0;
  std::vector<EstimateEntry> cache_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A shuffle's estimate list as the twin run feeds it: origins from a
/// range small enough to repeat within one batch and including `self`,
/// every third one moved past 16 bits (3 becomes the 0xffff wire
/// sentinel), counts over the whole byte range with some zero-hit
/// entries, and ages at 0, γ, γ + 1 and 0xff as well as uniform ones.
std::vector<EstimateEntry> twin_batch(sim::RngStream& rng, net::NodeId origins,
                                      std::size_t gamma) {
  std::vector<EstimateEntry> batch(rng.uniform(25));
  for (auto& e : batch) {
    e.origin = static_cast<net::NodeId>(1 + rng.uniform(origins));
    if (e.origin % 3 == 0) e.origin += 0xfffc;
    if (!rng.chance(0.1)) {
      e.pub_hits = static_cast<std::uint8_t>(rng.uniform(256));
      e.priv_hits = static_cast<std::uint8_t>(rng.uniform(256));
    }
    switch (rng.uniform(6)) {
      case 0: e.age = 0; break;
      case 1: e.age = static_cast<std::uint8_t>(gamma); break;
      case 2: e.age = static_cast<std::uint8_t>(gamma + 1); break;
      case 3: e.age = 0xff; break;
      default: e.age = static_cast<std::uint8_t>(rng.uniform(gamma + 2));
    }
  }
  return batch;
}

void twin_run(EstimatorConfig cfg, net::NatType type, std::uint64_t seed,
              std::size_t rounds) {
  constexpr net::NodeId kSelf = 7;
  const auto origins =
      static_cast<net::NodeId>(2 * cfg.share_limit + 40);  // > share_limit
  sim::RngStream ops(seed);
  sim::RngStream draws(seed ^ 0x5eed);
  sim::RngStream ref_draws(seed ^ 0x5eed);
  RatioEstimator est(kSelf, type, cfg);
  RefEstimator ref(kSelf, type, cfg);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::uint64_t op = ops.uniform(6); op > 0; --op) {
      switch (ops.uniform(4)) {
        case 0: {
          const auto sender = ops.chance(0.3) ? net::NatType::Public
                                              : net::NatType::Private;
          est.count_request(sender);
          ref.count_request(sender);
          break;
        }
        case 1: {
          const auto batch =
              twin_batch(ops, origins, cfg.neighbour_history);
          est.merge(batch);
          ref.merge(batch);
          break;
        }
        case 2:
          ASSERT_EQ(est.share(draws), ref.share(ref_draws))
              << "round " << round;
          break;
        default: {
          ASSERT_EQ(bits(est.estimate()), bits(ref.estimate()))
              << "round " << round;
          const auto local = est.local_estimate();
          const auto ref_local = ref.local_estimate();
          ASSERT_EQ(local.has_value(), ref_local.has_value());
          if (local.has_value()) {
            ASSERT_EQ(bits(*local), bits(*ref_local));
          }
        }
      }
    }
    est.begin_round();
    ref.begin_round();
    ASSERT_EQ(est.cached(), ref.cached()) << "round " << round;
    ASSERT_EQ(est.cached_count(), ref.cached().size());
  }
  EXPECT_EQ(draws.next_u64(), ref_draws.next_u64());
}

// (α, γ, share_limit): the paper's defaults, the smallest legal values,
// the largest share_limit (full shuffles and, past 16 entries, the dense
// sample path), and the largest γ.
TEST(RatioEstimatorTwin, MatchesVectorOfStructsEstimator) {
  for (const EstimatorConfig cfg : {EstimatorConfig{25, 50, 10},
                                    EstimatorConfig{1, 1, 1},
                                    EstimatorConfig{100, 250, 255}}) {
    for (const auto type : {net::NatType::Public, net::NatType::Private}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "gamma " << cfg.neighbour_history << ", public "
                     << (type == net::NatType::Public) << ", seed "
                     << seed);
        twin_run(cfg, type, seed, 600);
      }
    }
  }
}

// The largest γ (254) keeps entries for up to 254 rounds; 1000 rounds
// wrap the 8-bit round counter three times under live birth stamps.
TEST(RatioEstimatorTwin, MatchesAcrossRoundCounterWrap) {
  twin_run(EstimatorConfig{3, EstimatorConfig::kMaxNeighbourHistory, 10},
           net::NatType::Public, 11, 1000);
}

}  // namespace
}  // namespace croupier::core
