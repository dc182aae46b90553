// Full Yao-Demers-Shenker (FOCS'95) minimal-energy speed scheduling for
// preemptive jobs with arbitrary release times and deadlines.
//
// The GE scheduler itself only needs the restricted all-released case
// (energy_opt.h); the full algorithm serves three purposes here:
//   * it cross-checks the restricted planner (with every job released at
//     plan time and agreeable deadlines the two must produce the same
//     energy);
//   * it powers the idealised offline reference of abl_optimality_gap and
//     the YDS pseudo-scheduler: a clairvoyant fluid relaxation of the whole
//     trace that GE's online, non-preemptive, partitioned schedule can be
//     compared against;
//   * it is the reclaim advisor's re-speed (obs/analysis/reclaim.h) on
//     instances that are not agreeable, per core and for the pooled floor.
//
// One critical-interval kernel serves every entry point.  It works in real
// time over an availability measure: the timeline starts as [first release,
// last deadline], and each round finds the interval [t1, t2] maximising the
// intensity
//
//     g(t1, t2) = (sum of work of jobs with [r_j, d_j] subseteq [t1, t2])
//                 / (measure of the availability inside [t1, t2]),
//
// runs those jobs at speed g over that availability, and excises [t1, t2]
// from it.  Candidate t1/t2 are release/deadline points; a per-release sweep
// over deadline-ordered arrays costs O(n^2) per round.  yds_schedule keeps
// the rounds' blocks; yds_place also places every job, by preemptive EDF,
// on the real times the availability leaves it.
//
// agreeable_profile() is the linear-time special case: when the deadlines
// are agreeable (a later release never has an earlier deadline) the YDS
// speed profile is the taut string between the cumulative-release and
// cumulative-deadline work curves, computed in one pass.  It re-speeds the
// reclaim advisor's agreeable instances and re-plans the online zoo's
// OA/qOA/BKP (core/speed_scaling.h), whose jobs are all released already.
#pragma once

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

// One critical interval [t1, t2] of the schedule.
struct YdsBlock {
  double duration = 0.0;  // seconds: the availability measure of [t1, t2]
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

// A placed piece of the schedule: run input job `job` at `speed` over the
// real time [t0, t1].
struct YdsSlice {
  double t0 = 0.0;
  double t1 = 0.0;
  double speed = 0.0;
  std::size_t job = 0;  // index into the input span
};

struct YdsPlacement {
  std::vector<double> speed;     // per input job: its critical block's speed
                                 // (0 for a job without work)
  std::vector<YdsSlice> slices;  // in placement order
};

// The YDS schedule in real time: the same critical blocks as yds_schedule,
// each block's jobs placed by preemptive EDF (ties by input index) on the
// availability inside its interval.  Its continuous energy is
// yds_min_energy's up to rounding.
YdsPlacement yds_place(std::span<const YdsJob> jobs);

// One piece of a speed profile: run at `speed` over the real time [t0, t1].
struct SpeedSegment {
  double t0 = 0.0;
  double t1 = 0.0;
  double speed = 0.0;
};

// agreeable_profile's working memory, owned by the caller so that repeated
// calls stay off the allocator: the sorted positive-work jobs, their prefix
// sums, the funnel's two chains and the last call's result, `profile`.
struct ProfileScratch {
  struct Corner {
    double t = 0.0, w = 0.0;  // cumulative work w by time t
  };
  std::vector<YdsJob> jobs;
  std::vector<double> cum;
  std::vector<Corner> upper;
  std::vector<Corner> lower;
  std::vector<SpeedSegment> profile;
};

// Minimum-energy speed profile for agreeable jobs: sorted by (release,
// deadline), the deadlines never decrease.  Leaves the positive-speed
// segments in time order (idle gaps are left out) in scratch.profile and
// returns true, or returns false, with an empty profile, when the
// positive-work jobs are not agreeable.  The profile is the YDS one
// (Gaujal, Navet and Walsh, ACM TECS 2005): the taut string from
// (first release, 0) to (last deadline, total work) that passes below every
// upper corner (r, work released before r) and above every lower corner
// (d, work due by d).  A two-chain funnel builds it in one forward pass,
// O(n) after the sort.  Being the YDS profile, it minimises the energy of
// every convex power curve at once.  Jobs all released at one time are
// always agreeable.
bool agreeable_profile(std::span<const YdsJob> jobs, ProfileScratch& scratch);

}  // namespace ge::opt
