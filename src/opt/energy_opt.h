// Energy-OPT: minimal-energy speed planning for one core (Sec. III-E).
//
// The paper executes the jobs assigned to a core in EDF order with the
// speed schedule of Yao, Demers and Shenker (FOCS'95).  In the GE scheduler
// every planned job is already released (jobs are assigned when they
// arrive), so the YDS optimum reduces to the classic critical-interval
// construction: repeatedly find the prefix of the EDF queue with the highest
// intensity
//
//     S_k = (sum_{j<=k} w_j) / (d_k - t)
//
// run that block at speed max_k S_k, and recurse on the remainder.  Because
// the power-speed curve P = a s^beta is convex, running each critical block
// at its constant intensity minimises energy; block speeds are
// non-increasing over time.
//
// A speed cap (from the core's power cap) can make the plan infeasible; the
// planner then truncates work at deadlines.  The GE scheduler avoids that
// path by running Quality-OPT first, so truncation is only a safety net.
#pragma once

#include <span>

#include "opt/plan.h"

namespace ge::opt {

struct PlanJob {
  workload::Job* job = nullptr;
  double remaining = 0.0;  // units still to execute (after any cutting)
  double deadline = 0.0;   // absolute seconds, > now
};

// Maximum prefix intensity of the EDF queue: the minimal constant speed that
// completes all remaining work by every deadline.  `jobs` must be sorted by
// deadline with deadlines strictly after `now`.  Returns 0 for an empty set.
double required_speed(double now, std::span<const PlanJob> jobs);

// Builds the minimal-energy plan into `plan` (its previous segments are
// discarded and their capacity reused).  Segments never extend past their
// job's deadline; with speed_cap >= required_speed the plan completes every
// job.  speed_cap <= 0 yields an empty plan.
void plan_min_energy(double now, std::span<const PlanJob> jobs, double speed_cap,
                     ExecutionPlan& plan);

}  // namespace ge::opt
