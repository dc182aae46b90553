#include "opt/quality_opt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "quality/quality_function.h"
#include "util/check.h"

namespace ge::opt {
namespace {

constexpr double kTol = 1e-9;

// Equal-marginal water-filling for jobs [l, r] with a total budget, ignoring
// internal prefix constraints.  Writes allocations into x[l..r].
void waterfill(std::span<const AllocJob> jobs, std::size_t l, std::size_t r,
               double budget, const quality::QualityFunction& f,
               std::vector<double>& x) {
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
  auto allocated_at = [&](double theta) {
    const double level = f.inverse_derivative(theta);
    double sum = 0.0;
    for (std::size_t j = l; j <= r; ++j) {
      const double want = level - jobs[j].executed;
      sum += std::clamp(want, 0.0, jobs[j].max_extra);
    }
    return sum;
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
    if (allocated_at(mid) > budget) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (converged) {
      break;
    }
  }
  const double theta = hi;  // allocated_at(hi) <= budget
  const double level = f.inverse_derivative(theta);
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
           const quality::QualityFunction& f, std::vector<double>& x) {
  budget = std::max(budget, 0.0);
  waterfill(jobs, l, r, budget, f, x);
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
  solve(jobs, l, worst_k, base, left_budget, capacity, f, x);
  solve(jobs, worst_k + 1, r, base + left_budget, budget - left_budget, capacity, f,
        x);
}

}  // namespace

std::vector<double> maximize_quality(double now, std::span<const AllocJob> jobs,
                                     double speed_cap,
                                     const quality::QualityFunction& f) {
  QualityOptScratch scratch;
  maximize_quality(now, jobs, speed_cap, f, scratch);
  return std::move(scratch.extra);
}

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
  solve(jobs, 0, n - 1, 0.0, capacity[n - 1], capacity, f, x);
}

double allocation_quality(std::span<const AllocJob> jobs, std::span<const double> extra,
                          const quality::QualityFunction& f) {
  GE_CHECK(jobs.size() == extra.size(), "jobs/extra size mismatch");
  double total = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    total += f.value(jobs[j].executed + extra[j]);
  }
  return total;
}

}  // namespace ge::opt
