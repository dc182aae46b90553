#include "power/distribution.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/check.h"

namespace ge::power {

double water_level(double budget, std::span<const double> demands) {
  GE_CHECK(budget >= 0.0, "budget must be non-negative");
  double total = 0.0;
  for (double d : demands) {
    GE_CHECK(d >= 0.0, "power demand must be non-negative");
    total += d;
  }
  if (total <= budget) {
    return std::numeric_limits<double>::infinity();
  }
  // Sort demands ascending; find the level L with sum min(d_i, L) = budget.
  std::vector<double> sorted(demands.begin(), demands.end());
  std::sort(sorted.begin(), sorted.end());
  double satisfied = 0.0;  // sum of demands fully below the level so far
  const std::size_t n = sorted.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Candidate: the level lies in [sorted[i-1], sorted[i]); the (n - i)
    // remaining cores are capped at L.
    const double remaining = static_cast<double>(n - i);
    const double level = (budget - satisfied) / remaining;
    if (level <= sorted[i]) {
      return level;
    }
    satisfied += sorted[i];
  }
  // total > budget guarantees the loop returns; reaching here means a
  // floating-point edge -- cap at the largest demand.
  return sorted.back();
}

std::vector<double> water_filling(double budget, std::span<const double> demands) {
  std::vector<double> caps;
  water_filling(budget, demands, caps);
  return caps;
}

void water_filling(double budget, std::span<const double> demands,
                   std::vector<double>& caps) {
  const double level = water_level(budget, demands);
  caps.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    caps[i] = std::min(demands[i], level);
  }
}

const char* to_string(DistributionPolicy policy) noexcept {
  switch (policy) {
    case DistributionPolicy::kEqualSharing:
      return "equal-sharing";
    case DistributionPolicy::kWaterFilling:
      return "water-filling";
    case DistributionPolicy::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

DistributionPolicy resolve_hybrid(DistributionPolicy policy, double load,
                                  double critical_load) noexcept {
  if (policy != DistributionPolicy::kHybrid) {
    return policy;
  }
  return load > critical_load ? DistributionPolicy::kWaterFilling
                              : DistributionPolicy::kEqualSharing;
}

}  // namespace ge::power
