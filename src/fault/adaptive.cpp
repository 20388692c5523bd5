#include "fault/adaptive.h"

#include <algorithm>
#include <cmath>

namespace ferrum::fault {

std::pair<double, double> wilson_interval(int successes, int trials) {
  if (trials <= 0) return {0.0, 1.0};
  const double z = 1.959963985;  // 97.5th normal percentile
  const double n = trials;
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = (p + z2 / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  const double lo = centre - margin;
  const double hi = centre + margin;
  return {lo < 0.0 ? 0.0 : lo, hi > 1.0 ? 1.0 : hi};
}

double wilson_half_width(int successes, int trials) {
  const auto [lo, hi] = wilson_interval(successes, trials);
  return (hi - lo) / 2.0;
}

double max_outcome_half_width(const std::array<int, 4>& counts, int trials) {
  double widest = 0.0;
  for (int successes : counts) {
    widest = std::max(widest, wilson_half_width(successes, trials));
  }
  return widest;
}

std::vector<int> stop_boundaries(int planned, const StopRule& rule) {
  std::vector<int> boundaries;
  if (planned <= 0) return boundaries;
  // Doubling from min_trials caps the barrier count at ~log2(planned):
  // the block structure costs a handful of pool joins, not per-trial
  // synchronisation.
  long long boundary = std::max(1, rule.min_trials);
  while (boundary < planned) {
    boundaries.push_back(static_cast<int>(boundary));
    boundary *= 2;
  }
  boundaries.push_back(planned);
  return boundaries;
}

}  // namespace ferrum::fault
