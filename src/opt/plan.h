// Per-core execution plan: the output of the Energy-OPT planner and the
// input to a simulated core.
//
// A plan is a sequence of non-overlapping constant-speed segments in
// absolute simulation time, one segment per job (jobs run non-preemptively
// in EDF order, Sec. II-A).  Cores execute the plan verbatim until the next
// scheduling round replaces it.
#pragma once

#include <span>
#include <vector>

namespace ge::workload {
struct Job;
}
namespace ge::power {
class PowerModel;
}

namespace ge::opt {

struct PlanSegment {
  workload::Job* job = nullptr;
  double start = 0.0;  // absolute seconds
  double end = 0.0;    // absolute seconds, > start
  double speed = 0.0;  // processing units per second, > 0
  double units = 0.0;  // work credited over [start, end]; == speed*(end-start)
};

struct ExecutionPlan {
  std::vector<PlanSegment> segments;

  bool empty() const noexcept { return segments.empty(); }
  double start() const noexcept { return segments.empty() ? 0.0 : segments.front().start; }
  double end() const noexcept { return segments.empty() ? 0.0 : segments.back().end; }

  // Highest instantaneous power over the plan.
  double max_power(const power::PowerModel& pm) const;

  // Total energy if the plan runs to completion.
  double total_energy(const power::PowerModel& pm) const;

  // Checks structural invariants: segments ordered and non-overlapping,
  // positive speeds, units consistent with speed * duration, each segment
  // ending no later than its job's deadline (tolerance `tol`).
  void validate(double now, double tol = 1e-6) const;
};

}  // namespace ge::opt
