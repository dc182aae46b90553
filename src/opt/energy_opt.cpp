#include "opt/energy_opt.h"

#include <algorithm>

#include "util/check.h"
#include "workload/job.h"

namespace ge::opt {
namespace {

constexpr double kTimeTol = 1e-12;

void check_sorted(double now, std::span<const PlanJob> jobs) {
  double prev = now;
  for (const PlanJob& pj : jobs) {
    GE_CHECK(pj.job != nullptr, "plan job without a job");
    GE_CHECK(pj.remaining >= 0.0, "negative remaining work");
    GE_CHECK(pj.deadline > now + kTimeTol, "plan job already expired");
    GE_CHECK(pj.deadline >= prev - 1e-9, "plan jobs must be EDF-sorted");
    prev = pj.deadline;
  }
}

}  // namespace

double required_speed(double now, std::span<const PlanJob> jobs) {
  check_sorted(now, jobs);
  double cumulative = 0.0;
  double best = 0.0;
  for (const PlanJob& pj : jobs) {
    cumulative += pj.remaining;
    const double intensity = cumulative / (pj.deadline - now);
    if (intensity > best) {
      best = intensity;
    }
  }
  return best;
}

void plan_min_energy(double now, std::span<const PlanJob> jobs, double speed_cap,
                     ExecutionPlan& plan) {
  check_sorted(now, jobs);
  plan.segments.clear();
  if (speed_cap <= 0.0) {
    return;
  }
  plan.segments.reserve(jobs.size());

  std::size_t i = 0;
  double t = now;
  const std::size_t n = jobs.size();
  while (i < n) {
    // Critical block: the prefix starting at i with the highest intensity.
    double cumulative = 0.0;
    double best_intensity = 0.0;
    std::size_t best_k = i;
    for (std::size_t k = i; k < n; ++k) {
      cumulative += jobs[k].remaining;
      const double window = jobs[k].deadline - t;
      if (window <= kTimeTol) {
        // Deadline reached while earlier blocks ran (possible only when the
        // cap truncated them); this job gets no time.
        continue;
      }
      const double intensity = cumulative / window;
      if (intensity > best_intensity + 1e-12) {
        best_intensity = intensity;
        best_k = k;
      }
    }
    if (best_intensity <= 0.0) {
      break;  // nothing executable remains
    }
    const double speed = std::min(best_intensity, speed_cap);
    for (std::size_t j = i; j <= best_k; ++j) {
      if (jobs[j].remaining <= 0.0) {
        continue;
      }
      const double deadline = jobs[j].deadline;
      if (t >= deadline - kTimeTol) {
        continue;  // no time left for this job (cap-truncated block)
      }
      double units = jobs[j].remaining;
      double end = t + units / speed;
      if (end > deadline) {
        // Cap makes the block infeasible: truncate at the deadline.
        end = deadline;
        units = speed * (end - t);
      }
      plan.segments.push_back(PlanSegment{jobs[j].job, t, end, speed, units});
      t = end;
    }
    i = best_k + 1;
  }
}

}  // namespace ge::opt
