#include "opt/quality_opt.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "quality/quality_function.h"
#include "util/check.h"

namespace ge::opt {
namespace {

constexpr double kTol = 1e-9;

// Bit pattern of a non-negative double: ordered like the values, adjacent
// doubles one apart.
std::uint64_t ordinal(double x) { return std::bit_cast<std::uint64_t>(x); }
double from_ordinal(std::uint64_t u) { return std::bit_cast<double>(u); }

// The level L with sum_j clamp(L - e_j, 0, w_j) == budget for jobs [l, r],
// walked over the sorted breakpoints of that piecewise-linear sum.  Needs
// 0 < budget < sum_j w_j.
double level_for_budget(std::span<const AllocJob> jobs, std::size_t l, std::size_t r,
                        double budget, std::vector<LevelBreakpoint>& breakpoints) {
  breakpoints.clear();
  for (std::size_t j = l; j <= r; ++j) {
    breakpoints.push_back({jobs[j].executed, 1.0});
    breakpoints.push_back({jobs[j].executed + jobs[j].max_extra, -1.0});
  }
  std::sort(breakpoints.begin(), breakpoints.end(),
            [](const LevelBreakpoint& x, const LevelBreakpoint& y) {
              return x.level < y.level;
            });
  double filled = 0.0;
  double slope = 0.0;
  double prev = breakpoints.front().level;
  for (const LevelBreakpoint& b : breakpoints) {
    const double next = filled + slope * (b.level - prev);
    if (next >= budget && slope > 0.0) {
      return prev + (budget - filled) / slope;
    }
    filled = next;
    prev = b.level;
    slope += b.step;
  }
  return prev;
}

// Where the bisection predicate above(theta) flips: adjacent doubles
// lo < hi (as ordinals) with above(lo) true and above(hi) false.  An end the
// search did not evaluate is theta_lo (taken as true) or theta_hi (taken as
// false); when no double lies strictly between those two, neither is.
struct Flip {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool lo_known = false;
  bool hi_known = false;
  double lo_level = 0.0;  // f.inverse_derivative at the evaluated ends
  double hi_level = 0.0;
};

// Gallops in ulp steps from `estimate`, then bisects the bit pattern.
// above(theta, level) evaluates the predicate exactly and stores the level.
template <class Above>
Flip locate_flip(double theta_lo, double theta_hi, double estimate, const Above& above) {
  Flip flip{ordinal(theta_lo), ordinal(theta_hi)};
  if (flip.hi <= flip.lo + 1) {
    return flip;
  }
  auto probe = [&](std::uint64_t u) {
    double level = 0.0;
    const bool is_above = above(from_ordinal(u), level);
    (is_above ? flip.lo : flip.hi) = u;
    (is_above ? flip.lo_known : flip.hi_known) = true;
    (is_above ? flip.lo_level : flip.hi_level) = level;
    return is_above;
  };
  const std::uint64_t start = std::clamp(ordinal(estimate), flip.lo, flip.hi);
  const bool up = start == flip.lo || (start != flip.hi && probe(start));
  for (std::uint64_t step = 1; flip.hi - flip.lo > step; step *= 2) {
    if (probe(up ? flip.lo + step : flip.hi - step) != up) {
      break;
    }
  }
  while (flip.hi - flip.lo > 1) {
    probe(flip.lo + (flip.hi - flip.lo) / 2);
  }
  return flip;
}

// The replay guard G, in ulps of theta.
//
// above(theta) = sum_j clamp(L(theta) - e_j, 0, w_j) > budget with
// L = f.inverse_derivative(theta).  Subtract, clamp, sum and compare are
// monotone, and so is every step of L except the rounding of one libm
// result: the exponential family's L = -ln(theta * norm / c) / c rounds
// ln y to within E = 1 ulp, a relative error of at most E * 2^-52 that
// carries over to L.  (The generic bisection behind the linear and
// power-law families is monotone outright: for a fixed midpoint,
// f'(mid) > slope is monotone in slope.)  So two thetas can take levels
// in the wrong order only while their exact levels lie within
// 2E * 2^-52 of each other, relatively.
//
// Two thetas k ulps apart are at least k * 2^-53 apart in ln theta; the two
// roundings of y before the libm call take at most 4 * 2^-53 of that, and
// the level moves by the elasticity Lambda = |d ln L / d ln theta| times
// what is left.  Order is therefore kept once Lambda * (k - 4) * 2^-53
// >= 2E * 2^-52, i.e. k >= 4E / Lambda + 4, and then above() at every
// theta more than k ulps below the flip is true (its level is at least
// the level at lo) and more than k ulps above it false.  For the paper's
// f, 1 / Lambda = ln(f'(0) / theta) = cL <= c * xmax = 3: k >= 16, G <= 32.
//
// Lambda is measured on the chord from the evaluated end down to
// theta * (1 - 2^-24): the level there is larger, so for the exponential
// family the chord's Lambda = 1 / (cL) errs low and G high, and a level
// clamped at xmax only flattens the chord further.  G doubles the bound as
// margin.  A flat chord (both levels clamped) gives no guard at all: the
// replay then evaluates every midpoint, exactly as the plain bisection.
constexpr double kLibmUlps = 1.0;
constexpr double kChordStep = 0x1p-24;
constexpr std::uint64_t kNoGuard = std::numeric_limits<std::uint64_t>::max();

std::uint64_t guard_ulps(const Flip& flip, const quality::QualityFunction& f) {
  if (!flip.lo_known && !flip.hi_known) {
    return kNoGuard;
  }
  const double theta = from_ordinal(flip.lo_known ? flip.lo : flip.hi);
  const double level = flip.lo_known ? flip.lo_level : flip.hi_level;
  const double chord_theta = theta - theta * kChordStep;
  const double chord_level = f.inverse_derivative(chord_theta);
  const double elasticity =
      ((chord_level - level) / chord_level) / ((theta - chord_theta) / theta);
  const double guard = 2.0 * (4.0 * kLibmUlps / elasticity + 4.0);
  if (!(elasticity > 0.0) || !(guard < 0x1p60)) {
    return kNoGuard;
  }
  return static_cast<std::uint64_t>(std::ceil(guard));
}

// Equal-marginal water-filling for jobs [l, r] with a total budget, ignoring
// internal prefix constraints.  Writes allocations into scratch.extra[l..r].
//
// The threshold theta comes from a fixed bisection (at most 100 halvings of
// [theta_lo, theta_hi], hi kept) whose every bit the goldens pin.  It is
// replayed without paying a level evaluation per midpoint: the flip of its
// predicate is located exactly from the breakpoint solution for the level,
// and a midpoint more than G ulps from the flip takes the side it is on;
// only the few midpoints inside that band (and the search) evaluate it.
void waterfill(std::span<const AllocJob> jobs, std::size_t l, std::size_t r,
               double budget, const quality::QualityFunction& f,
               QualityOptScratch& scratch) {
  std::vector<double>& x = scratch.extra;
  double total_extra = 0.0;
  for (std::size_t j = l; j <= r; ++j) {
    total_extra += jobs[j].max_extra;
  }
  if (budget <= kTol) {
    for (std::size_t j = l; j <= r; ++j) {
      x[j] = 0.0;
    }
    return;
  }
  if (budget >= total_extra - kTol) {
    for (std::size_t j = l; j <= r; ++j) {
      x[j] = jobs[j].max_extra;
    }
    return;
  }
  // Bisection on the marginal-quality threshold theta: each job takes work
  // until its marginal f'(e_j + x_j) falls to theta.
  double theta_hi = 0.0;  // allocates nothing
  double theta_lo = std::numeric_limits<double>::infinity();
  for (std::size_t j = l; j <= r; ++j) {
    theta_hi = std::max(theta_hi, f.derivative(jobs[j].executed));
    theta_lo = std::min(theta_lo, f.derivative(jobs[j].executed + jobs[j].max_extra));
  }
  auto allocated_at = [&](double level) {
    double sum = 0.0;
    for (std::size_t j = l; j <= r; ++j) {
      const double want = level - jobs[j].executed;
      sum += std::clamp(want, 0.0, jobs[j].max_extra);
    }
    return sum;
  };
  auto above = [&](double theta, double& level) {
    level = f.inverse_derivative(theta);
    return allocated_at(level) > budget;
  };
  const double estimate =
      f.derivative(level_for_budget(jobs, l, r, budget, scratch.breakpoints));
  const Flip flip = locate_flip(theta_lo, theta_hi, estimate, above);
  const std::uint64_t guard = guard_ulps(flip, f);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double surely_above =
      flip.lo_known && flip.lo > guard ? from_ordinal(flip.lo - guard) : -kInf;
  const double surely_below = flip.hi_known && ordinal(kInf) - flip.hi > guard
                                  ? from_ordinal(flip.hi + guard)
                                  : kInf;
  auto above_at = [&](double mid) {
    if (mid < surely_above) {
      return true;
    }
    if (mid > surely_below) {
      return false;
    }
    if (flip.lo_known && mid == from_ordinal(flip.lo)) {
      return true;
    }
    if (flip.hi_known && mid == from_ordinal(flip.hi)) {
      return false;
    }
    double level = 0.0;
    return above(mid, level);
  };
  double lo = theta_lo;
  double hi = theta_hi;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    // Once the midpoint collides with an endpoint the interval cannot
    // shrink further: every later iteration recomputes this same mid and
    // takes this same branch, so hi has reached its final value.  Breaking
    // after the update is therefore bitwise-identical to running out the
    // full iteration count.
    const bool converged = mid == lo || mid == hi;
    if (above_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (converged) {
      break;
    }
  }
  const double theta = hi;  // allocated_at(level(hi)) <= budget
  // Usually the bisection ends on the flip's hi, whose level is known.
  const double level = flip.hi_known && theta == from_ordinal(flip.hi)
                           ? flip.hi_level
                           : f.inverse_derivative(theta);
  double used = 0.0;
  for (std::size_t j = l; j <= r; ++j) {
    x[j] = std::clamp(level - jobs[j].executed, 0.0, jobs[j].max_extra);
    used += x[j];
  }
  // Distribute the bisection residual to jobs with slack (keeps the budget
  // fully used; the residual is tiny so optimality is unaffected).
  double residual = budget - used;
  for (std::size_t j = l; j <= r && residual > kTol; ++j) {
    const double slack = jobs[j].max_extra - x[j];
    const double take = std::min(slack, residual);
    x[j] += take;
    residual -= take;
  }
}

// Solves jobs [l, r] given `base` units already committed to earlier prefixes
// and `budget` units available to this range.  capacity(k) is the absolute
// prefix capacity s*(d_k - now) for job index k.
void solve(std::span<const AllocJob> jobs, std::size_t l, std::size_t r, double base,
           double budget, std::span<const double> capacity,
           const quality::QualityFunction& f, QualityOptScratch& scratch) {
  budget = std::max(budget, 0.0);
  waterfill(jobs, l, r, budget, f, scratch);
  const std::vector<double>& x = scratch.extra;
  if (l == r) {
    return;
  }
  // Find the most violated internal prefix constraint.
  double worst_violation = kTol;
  std::size_t worst_k = r;
  double prefix = 0.0;
  for (std::size_t k = l; k < r; ++k) {
    prefix += x[k];
    const double allowed = std::max(capacity[k] - base, 0.0);
    const double violation = prefix - allowed;
    if (violation > worst_violation) {
      worst_violation = violation;
      worst_k = k;
    }
  }
  if (worst_k == r) {
    return;  // feasible
  }
  // Pin the worst prefix tight and recurse on both sides.
  const double left_budget = std::max(capacity[worst_k] - base, 0.0);
  solve(jobs, l, worst_k, base, left_budget, capacity, f, scratch);
  solve(jobs, worst_k + 1, r, base + left_budget, budget - left_budget, capacity, f,
        scratch);
}

}  // namespace

void maximize_quality(double now, std::span<const AllocJob> jobs, double speed_cap,
                      const quality::QualityFunction& f, QualityOptScratch& scratch) {
  const std::size_t n = jobs.size();
  std::vector<double>& x = scratch.extra;
  x.assign(n, 0.0);
  if (n == 0 || speed_cap <= 0.0) {
    return;
  }
  double prev_deadline = -std::numeric_limits<double>::infinity();
  for (const AllocJob& aj : jobs) {
    GE_CHECK(aj.executed >= 0.0, "negative executed work");
    GE_CHECK(aj.max_extra >= 0.0, "negative max_extra");
    GE_CHECK(aj.deadline >= prev_deadline - 1e-9, "jobs must be EDF-sorted");
    prev_deadline = aj.deadline;
  }
  std::vector<double>& capacity = scratch.capacity;
  capacity.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    capacity[k] = speed_cap * std::max(jobs[k].deadline - now, 0.0);
  }
  solve(jobs, 0, n - 1, 0.0, capacity[n - 1], capacity, f, scratch);
}

}  // namespace ge::opt
