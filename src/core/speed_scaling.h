// Online speed-scaling schedulers with deadline feasibility: OA, qOA, AVR,
// BKP (the classic zoo of Abousamra-Bunde-Pruhs, "An Experimental
// Comparison of Speed Scaling Algorithms with Deadline Feasibility
// Constraints").
//
// All four run every job to its full demand (no quality cutting) and pick
// the *speed* online:
//
//   OA   (Optimal Available, Yao-Demers-Shenker '95): at every arrival,
//        re-solve YDS on the remaining work of the jobs on hand.  Because
//        everything on hand is already released, the instance is agreeable
//        and its optimum is opt::agreeable_profile's taut string: a
//        staircase of non-increasing speeds, each step the pending-deadline
//        prefix maximising sum(remaining) / (deadline - step start).
//        2^beta-competitive.
//   qOA  (Bansal-Chan-Lam-Lee): run at q times the OA speed.  Theory picks
//        q = 2 - 1/beta (= 1.5 for beta = 2); the ABP experiments show
//        q < 1 wins at low load.  For q < 1 the profile may be too slow,
//        so the planner's finish-by-deadline repair (below) kicks in.
//   AVR  (Average Rate, Yao-Demers-Shenker '95): s(t) is the sum of the
//        constant densities w_j / (d_j - r_j) of every job whose
//        [release, deadline] window contains t -- including jobs that
//        already finished, until their deadline passes.
//   BKP  (Bansal-Kimbrel-Pruhs '04): s(t) = max over t2 > t of
//        W(t1, t2) / (t2 - t) with t1 = e*t - (e-1)*t2, where W is the
//        *original* work released in [t1, t] with deadline <= t2.  The
//        estimate moves between events, so a refresh grid re-samples it;
//        the OA staircase is kept as a floor, which preserves feasibility.
//
// Integration with this repo's partitioned, non-preemptive-core model
// (docs/SCHEDULERS.md has the full story):
//   * arriving jobs are pinned to the online core with the least remaining
//     target work (ties: lowest id) -- jobs never migrate;
//   * each core gets the Equal-Sharing power cap H/m, and the speed profile
//     is clamped at the cap speed;
//   * per core, jobs execute in EDF order along the piecewise-constant
//     profile (a job may span several plan segments);
//   * if the profile cannot finish a job by its deadline (q < 1, or the
//     cap binds), the planner raises that job to the constant speed
//     remaining / (deadline - cursor), capped; a cap-clipped job runs to
//     its deadline and settles partial, exactly like queue_policy.h.
//
// Under a generous power budget OA/qOA/AVR/BKP never miss a deadline
// (pinned by tests/test_speed_scaling.cpp's fuzz suite).
#pragma once

#include <string>
#include <vector>

#include "core/scheduler.h"
#include "opt/yds.h"
#include "power/discrete_speed.h"
#include "sim/event_queue.h"

namespace ge::sched {

enum class SpeedScalingPolicy { kOa, kQoa, kAvr, kBkp };
const char* to_string(SpeedScalingPolicy policy) noexcept;

struct SpeedScalingOptions {
  SpeedScalingPolicy policy = SpeedScalingPolicy::kOa;
  // qOA multiplier on the OA speed (> 0); 1.0 degenerates to OA.
  double q = 1.0;
  // Re-plan grid for the policies whose speed moves between events (BKP
  // always; qOA away from q = 1).  <= 0 disables the grid: plans are only
  // rebuilt at arrivals and deadline settlements.
  double refresh_interval = 0.0;
  // Discrete DVFS ladder, or nullptr for continuous speeds.
  const power::DiscreteSpeedTable* speed_table = nullptr;
};

class SpeedScalingScheduler : public Scheduler {
 public:
  SpeedScalingScheduler(SchedulerEnv env, SpeedScalingOptions options,
                        std::string name);

  void on_job_arrival(workload::Job* job) override;
  void on_job_finished(workload::Job* job) override;
  void on_deadline(workload::Job* job) override;
  void finish() override;

 private:
  // AVR keeps a job's density until its deadline even after the job
  // finishes; BKP keeps the original work of past releases.  Both are POD
  // copies: a streaming JobStore recycles Job slots shortly after
  // settlement, so no Job* may be held past settle.
  struct AvrEntry {
    double deadline = 0.0;
    double density = 0.0;  // demand / (deadline - arrival), units/second
  };
  struct BkpRecord {
    double release = 0.0;
    double deadline = 0.0;
    double work = 0.0;  // original demand, units
  };
  struct CoreState {
    std::vector<workload::Job*> active;  // pinned here, not yet settled
    std::vector<AvrEntry> densities;     // AVR only
    std::vector<BkpRecord> history;      // BKP only
    sim::EventId refresh_event = sim::kInvalidEventId;
    double cap_speed = 0.0;  // speed at the Equal-Sharing power cap
  };

  // Online core with the least remaining target work (ties: lowest id);
  // -1 when every core is offline.
  int pick_core() const;
  void forget(workload::Job* job);
  // Re-plans one core: settles exact completions, prunes records, rebuilds
  // the speed profile, lays the active jobs EDF along it, installs the
  // plan, re-arms the refresh grid.
  void rebuild(std::size_t core_id);
  // The core's capped speed profile, contiguous from t0; valid until the next call.
  const std::vector<opt::SpeedSegment>& speed_profile(double t0, const CoreState& state);
  double bkp_speed(double t0, const CoreState& state) const;
  void arm_refresh(std::size_t core_id);

  SpeedScalingOptions options_;
  double core_cap_watts_ = 0.0;
  std::vector<CoreState> cores_;
  // Re-plan working memory shared by every core: the profile's input jobs
  // (or AVR's live densities) and the taut string's scratch.
  std::vector<opt::YdsJob> pending_;
  std::vector<AvrEntry> live_;
  opt::ProfileScratch profile_;
};

}  // namespace ge::sched
