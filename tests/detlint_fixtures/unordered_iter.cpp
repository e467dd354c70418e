// Fixture: the `unordered-iter` rule, including attribution to the
// enclosing function. (Not compiled — scanned by detlint_test.)
#include <map>
#include <unordered_map>
#include <unordered_set>

std::unordered_map<int, double> table;
std::unordered_set<int> members;

double bad_range_for() {
  double s = 0.0;
  for (const auto& [k, v] : table) s = v;  // FINDING: unordered-iter
  return s;
}

int bad_begin_walk() {
  int n = 0;
  for (auto it = members.begin(); it != members.end(); ++it) ++n;  // FINDING
  return n;
}

double suppressed_iter() {
  double worst = 0.0;
  // detlint:allow(unordered-iter) fixture: max-selection is visit-order
  // insensitive (reason continues on a second comment line).
  for (const auto& [k, v] : table) {
    if (v > worst) worst = v;
  }
  return worst;
}

int fine_ordered_iter(const std::map<int, int>& m) {
  int s = 0;
  for (const auto& [k, v] : m) s += v;  // ordered map: no finding
  return s;
}
