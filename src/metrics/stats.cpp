#include "metrics/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace croupier::metrics {

double percentile(std::span<const double> values, double q) {
  CROUPIER_ASSERT(q >= 0.0 && q <= 1.0);
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;

  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());

  double sum = 0.0;
  // Summing the value-sorted copy makes the summand order a function of
  // the values alone, not of input order.
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(sorted.size());

  double var = 0.0;
  for (double v : sorted) var += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(sorted.size()));

  s.min = sorted.front();
  s.max = sorted.back();
  auto pct = [&sorted](double q) {
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  };
  s.p50 = pct(0.50);
  s.p90 = pct(0.90);
  s.p99 = pct(0.99);
  return s;
}

Histogram histogram(std::span<const double> values, double lo, double hi,
                    std::size_t bins) {
  CROUPIER_ASSERT(bins > 0);
  CROUPIER_ASSERT(hi > lo);
  Histogram h;
  h.counts.assign(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double v : values) {
    if (v < lo) {
      ++h.underflow;
    } else if (!(v < hi)) {  // v >= hi, or NaN
      ++h.overflow;
    } else {
      // Rounding in (v - lo) / width can land exactly on `bins` for
      // values just under hi; keep those in the last bin.
      const auto bin = std::min(
          static_cast<std::size_t>((v - lo) / width), bins - 1);
      ++h.counts[bin];
    }
  }
  return h;
}

double ks_distance(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) return a.empty() == b.empty() ? 0.0 : 1.0;
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());

  double best = 0.0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < sa.size() && ib < sb.size()) {
    const double x = std::min(sa[ia], sb[ib]);
    while (ia < sa.size() && sa[ia] <= x) ++ia;
    while (ib < sb.size() && sb[ib] <= x) ++ib;
    const double fa = static_cast<double>(ia) / static_cast<double>(sa.size());
    const double fb = static_cast<double>(ib) / static_cast<double>(sb.size());
    best = std::max(best, std::abs(fa - fb));
  }
  return best;
}

std::vector<double> to_doubles(std::span<const std::size_t> values) {
  std::vector<double> out;
  out.reserve(values.size());
  for (std::size_t v : values) out.push_back(static_cast<double>(v));
  return out;
}

}  // namespace croupier::metrics
