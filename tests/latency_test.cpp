// Latency model tests: determinism, symmetry, distribution shape of the
// synthetic King-like model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/latency.hpp"

namespace croupier::net {
namespace {

using sim::msec;

TEST(ConstantLatency, AlwaysSame) {
  ConstantLatency m(msec(42));
  sim::RngStream rng(1);
  EXPECT_EQ(m.sample(1, 2, rng), msec(42));
  EXPECT_EQ(m.sample(9, 7, rng), msec(42));
}

TEST(KingLatency, BaseIsDeterministic) {
  KingLatencyModel a(123);
  KingLatencyModel b(123);
  for (NodeId i = 0; i < 50; ++i) {
    EXPECT_EQ(a.base_latency(i, i + 1), b.base_latency(i, i + 1));
  }
}

TEST(KingLatency, BaseIsSymmetric) {
  KingLatencyModel m(7);
  for (NodeId i = 0; i < 50; ++i) {
    EXPECT_EQ(m.base_latency(i, i + 17), m.base_latency(i + 17, i));
  }
}

TEST(KingLatency, DifferentSeedsGiveDifferentMaps) {
  KingLatencyModel a(1);
  KingLatencyModel b(2);
  int distinct = 0;
  for (NodeId i = 0; i < 50; ++i) {
    if (a.base_latency(i, i + 1) != b.base_latency(i, i + 1)) ++distinct;
  }
  EXPECT_GT(distinct, 40);
}

TEST(KingLatency, WithinClampBounds) {
  KingLatencyModel::Params p;
  KingLatencyModel m(5, p);
  sim::RngStream rng(1);
  for (NodeId i = 0; i < 500; ++i) {
    const auto d = m.sample(i, i + 31, rng);
    EXPECT_GE(d, p.min_latency);
    EXPECT_LE(d, p.max_latency);
  }
}

TEST(KingLatency, MedianNearConfigured) {
  KingLatencyModel m(99);
  std::vector<sim::Duration> samples;
  for (NodeId i = 0; i < 4000; ++i) {
    samples.push_back(m.base_latency(i, 100000 + i));
  }
  std::sort(samples.begin(), samples.end());
  const double median_ms =
      static_cast<double>(samples[samples.size() / 2]) / 1000.0;
  // Configured median is 77 ms; the log-normal sampling should land close.
  EXPECT_NEAR(median_ms, 77.0, 8.0);
}

TEST(KingLatency, HeavyRightTail) {
  KingLatencyModel m(99);
  std::vector<double> ms;
  for (NodeId i = 0; i < 4000; ++i) {
    ms.push_back(static_cast<double>(m.base_latency(i, 200000 + i)) / 1000.0);
  }
  std::sort(ms.begin(), ms.end());
  const double median = ms[ms.size() / 2];
  const double p95 = ms[static_cast<std::size_t>(ms.size() * 0.95)];
  // Log-normal with sigma 0.56: p95/median = exp(1.645*0.56) ~ 2.5.
  EXPECT_GT(p95 / median, 1.8);
}

TEST(KingLatency, JitterPerturbsAroundBase) {
  KingLatencyModel::Params p;
  p.jitter_fraction = 0.1;
  KingLatencyModel m(3, p);
  sim::RngStream rng(4);
  const auto base = m.base_latency(10, 20);
  for (int i = 0; i < 200; ++i) {
    const auto d = m.sample(10, 20, rng);
    EXPECT_GE(static_cast<double>(d), static_cast<double>(base) * 0.89);
    EXPECT_LE(static_cast<double>(d), static_cast<double>(base) * 1.11);
  }
}

TEST(KingLatency, ZeroJitterReturnsBaseExactly) {
  KingLatencyModel::Params p;
  p.jitter_fraction = 0.0;
  KingLatencyModel m(3, p);
  sim::RngStream rng(4);
  EXPECT_EQ(m.sample(10, 20, rng), m.base_latency(10, 20));
}

TEST(KingLatency, SelfLatencyIsMinimal) {
  KingLatencyModel::Params p;
  KingLatencyModel m(3, p);
  EXPECT_EQ(m.base_latency(5, 5), p.min_latency);
}

TEST(CoordinateLatency, PositionsDeterministicAndInUnitSquare) {
  CoordinateLatencyModel a(5);
  CoordinateLatencyModel b(5);
  for (NodeId i = 0; i < 100; ++i) {
    const auto [x, y] = a.position(i);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 1.0);
    EXPECT_EQ(a.position(i), b.position(i));
  }
}

TEST(CoordinateLatency, SymmetricBase) {
  CoordinateLatencyModel m(7);
  for (NodeId i = 0; i < 50; ++i) {
    EXPECT_EQ(m.base_latency(i, i + 13), m.base_latency(i + 13, i));
  }
}

TEST(CoordinateLatency, RespectsTriangleInequality) {
  // Euclidean embedding + constant last-mile: lat(a,c) <= lat(a,b) +
  // lat(b,c) + last_mile (the extra last-mile term of the middle hop).
  CoordinateLatencyModel::Params p;
  p.jitter_fraction = 0.0;
  CoordinateLatencyModel m(11, p);
  for (NodeId a = 0; a < 20; ++a) {
    for (NodeId b = 20; b < 30; ++b) {
      for (NodeId c = 30; c < 40; ++c) {
        EXPECT_LE(m.base_latency(a, c),
                  m.base_latency(a, b) + m.base_latency(b, c));
      }
    }
  }
}

TEST(CoordinateLatency, ClustersCreateBimodalLatencies) {
  // Intra-continent pairs should be clearly faster than inter-continent
  // pairs; check that both short and long latencies occur.
  CoordinateLatencyModel::Params p;
  p.jitter_fraction = 0.0;
  CoordinateLatencyModel m(13, p);
  sim::Duration shortest = ~0ull;
  sim::Duration longest = 0;
  for (NodeId i = 0; i < 200; ++i) {
    const auto d = m.base_latency(i, i + 101);
    shortest = std::min(shortest, d);
    longest = std::max(longest, d);
  }
  EXPECT_LT(shortest, msec(30));
  EXPECT_GT(longest, msec(60));
}

TEST(CoordinateLatency, JitterBounded) {
  CoordinateLatencyModel m(17);
  sim::RngStream rng(1);
  const auto base = m.base_latency(1, 2);
  for (int i = 0; i < 100; ++i) {
    const auto d = m.sample(1, 2, rng);
    EXPECT_GE(static_cast<double>(d), static_cast<double>(base) * 0.89);
    EXPECT_LE(static_cast<double>(d), static_cast<double>(base) * 1.11);
  }
}

}  // namespace
}  // namespace croupier::net
