#include "opt/plan.h"

#include <cmath>

#include "power/power_model.h"
#include "util/check.h"
#include "workload/job.h"

namespace ge::opt {

double ExecutionPlan::max_power(const power::PowerModel& pm) const {
  double max_p = 0.0;
  for (const PlanSegment& seg : segments) {
    const double p = pm.power(seg.speed);
    if (p > max_p) {
      max_p = p;
    }
  }
  return max_p;
}

double ExecutionPlan::total_energy(const power::PowerModel& pm) const {
  double energy = 0.0;
  for (const PlanSegment& seg : segments) {
    energy += pm.energy(seg.speed, seg.end - seg.start);
  }
  return energy;
}

void ExecutionPlan::validate(double now, double tol) const {
  double cursor = now - tol;
  for (const PlanSegment& seg : segments) {
    GE_CHECK(seg.job != nullptr, "plan segment without a job");
    GE_CHECK(seg.start >= cursor, "plan segments overlap or precede now");
    GE_CHECK(seg.end > seg.start, "plan segment has non-positive duration");
    GE_CHECK(seg.speed > 0.0, "plan segment has non-positive speed");
    GE_CHECK(std::abs(seg.units - seg.speed * (seg.end - seg.start)) <=
                 tol * (1.0 + seg.units),
             "segment units inconsistent with speed * duration");
    GE_CHECK(seg.end <= seg.job->deadline + tol,
             "plan segment runs past its job's deadline");
    cursor = seg.end - tol;
  }
}

}  // namespace ge::opt
