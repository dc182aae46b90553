// Full Yao-Demers-Shenker (FOCS'95) minimal-energy speed scheduling for
// preemptive jobs with arbitrary release times and deadlines.
//
// The GE scheduler itself only needs the restricted all-released case
// (energy_opt.h); the full algorithm serves two purposes here:
//   * it cross-checks the restricted planner (with every job released at
//     plan time and agreeable deadlines the two must produce the same
//     energy), and
//   * it powers the idealised offline reference of abl_optimality_gap: a
//     clairvoyant fluid relaxation of the whole trace that GE's online,
//     non-preemptive, partitioned schedule can be compared against.
//
// Classic critical-interval construction: repeatedly find the interval
// [t1, t2] maximising the intensity
//
//     g(t1, t2) = (sum of work of jobs with [r_j, d_j] subseteq [t1, t2])
//                 / (t2 - t1),
//
// schedule those jobs at speed g over the interval, excise the interval
// from the timeline, and recurse on the remaining jobs.  Candidate t1/t2
// are release/deadline points, so each round costs O(n^2) with the
// per-release sweep used below.
//
// agreeable_profile() is the linear-time special case: when the deadlines
// are agreeable (a later release never has an earlier deadline) the YDS
// speed profile is the taut string between the cumulative-release and
// cumulative-deadline work curves, computed in one pass.
#pragma once

#include <optional>
#include <span>
#include <vector>

namespace ge::power {
class PowerModel;
}

namespace ge::opt {

struct YdsJob {
  double release = 0.0;
  double deadline = 0.0;  // > release
  double work = 0.0;      // units; jobs with zero work are ignored
};

struct YdsBlock {
  double duration = 0.0;  // seconds of (collapsed) timeline
  double speed = 0.0;     // units/second
  double work = 0.0;      // speed * duration
  std::size_t jobs = 0;   // number of jobs completed in this block
};

struct YdsSchedule {
  // Critical blocks in construction order; speeds are non-increasing.
  std::vector<YdsBlock> blocks;

  double total_work() const;
  double max_speed() const;
  // Energy of executing the blocks on one machine with the given model.
  double energy(const power::PowerModel& pm) const;
};

// Computes the YDS schedule.  Jobs may be in any order.
YdsSchedule yds_schedule(std::span<const YdsJob> jobs);

// Minimal energy of the instance under the power model (convenience).
double yds_min_energy(std::span<const YdsJob> jobs, const power::PowerModel& pm);

// One piece of a speed profile: run at `speed` over the real time [t0, t1].
struct SpeedSegment {
  double t0 = 0.0;
  double t1 = 0.0;
  double speed = 0.0;
};

// Minimum-energy speed profile for agreeable jobs: sorted by (release,
// deadline), the deadlines never decrease.  Returns the positive-speed
// segments in time order (idle gaps are left out), or nullopt when the
// positive-work jobs are not agreeable.  The profile is the YDS one
// (Gaujal, Navet and Walsh, ACM TECS 2005): the taut string from
// (first release, 0) to (last deadline, total work) that passes below every
// upper corner (r, work released before r) and above every lower corner
// (d, work due by d).  A two-chain funnel builds it in one forward pass,
// O(n) after the sort.  Being the YDS profile, it minimises the energy of
// every convex power curve at once.
std::optional<std::vector<SpeedSegment>> agreeable_profile(
    std::span<const YdsJob> jobs);

}  // namespace ge::opt
