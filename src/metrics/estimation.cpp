#include "metrics/estimation.hpp"

#include <algorithm>
#include <cmath>

namespace croupier::metrics {

ErrorSample estimation_errors(std::span<const double> estimates,
                              double truth) {
  ErrorSample s;
  s.truth = truth;
  s.node_count = estimates.size();
  if (estimates.empty()) return s;
  double sum = 0.0;
  double worst = 0.0;
  for (double e : estimates) {
    const double err = std::abs(truth - e);
    // `estimates` arrives in ascending-node-id order
    // (World::ratio_estimates walks sorted_ids), so the summation order is
    // fixed.
    sum += err;
    worst = std::max(worst, err);
  }
  s.avg_error = sum / static_cast<double>(estimates.size());
  s.max_error = worst;
  return s;
}

}  // namespace croupier::metrics
