// Power-distribution policies (Sec. III-D).
//
// A distribution policy splits the server's total dynamic-power budget H
// into per-core *caps*.  Cores then plan speeds whose instantaneous power
// never exceeds their cap, so the server-wide constraint
// sum_i P_i(t) <= H holds by construction.
//
//  * Equal-Sharing (ES): every core gets H/m.  Used under light load to keep
//    core speeds close together and avoid speed thrashing.
//  * Water-Filling (WF): per-core power demands are satisfied lowest-first;
//    when the budget cannot cover all demands, every capped core gets the
//    same water level L with sum_i min(d_i, L) = H.  Used under heavy load
//    to funnel spare power to the loaded cores (from Du et al., IPDPS'13).
//  * Hybrid: ES below the critical load, WF above it -- the paper's GE
//    policy.
#pragma once

#include <span>
#include <vector>

namespace ge::power {

// Water-filling allocation.  `demands[i]` is core i's requested power (W).
// Returns caps with caps[i] = min(demands[i], L); if sum(demands) <= budget
// every demand is met exactly (leftover budget stays unused, matching the
// policy's "satisfy the low demand first" description -- there is nothing
// useful to do with power no core asked for).
std::vector<double> water_filling(double budget, std::span<const double> demands);

// In-place variant for per-round callers: writes the caps into `caps`
// (resized to demands.size()), reusing its capacity across rounds.
void water_filling(double budget, std::span<const double> demands,
                   std::vector<double>& caps);

// The water level L used by water_filling when the budget binds; returns
// +infinity when sum(demands) <= budget (no level binds).
double water_level(double budget, std::span<const double> demands);

enum class DistributionPolicy {
  kEqualSharing,
  kWaterFilling,
  kHybrid,
};

const char* to_string(DistributionPolicy policy) noexcept;

// Resolves the hybrid policy: picks WF when `load` exceeds `critical_load`,
// otherwise ES.  For the non-hybrid policies the inputs are ignored.
DistributionPolicy resolve_hybrid(DistributionPolicy policy, double load,
                                  double critical_load) noexcept;

}  // namespace ge::power
