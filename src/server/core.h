// A simulated DVFS core.
//
// A core owns the queue of jobs pinned to it (jobs never migrate, Sec. II-B)
// and executes the ExecutionPlan installed by the scheduler: piecewise
// constant-speed segments, one job at a time, in EDF order.  The core
// integrates processed work, dynamic energy E = integral of a*s(t)^beta dt,
// and time-weighted speed statistics (for the Fig. 6 thrashing study), and
// raises callbacks when a segment's job finishes and when the plan runs dry.
//
// Plans can be replaced at any time: install_plan() first advances execution
// to "now" along the old plan (crediting partial work on the in-flight
// segment), then swaps in the new one.  This is how the GE scheduler re-cuts
// and re-plans running jobs at every scheduling round.
#pragma once

#include <functional>
#include <vector>

#include "opt/plan.h"
#include "power/power_model.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "workload/job.h"

namespace ge::server {

class Core {
 public:
  // Fired when a plan segment completes naturally: the job has received all
  // the work this plan intended for it (full target, or deadline-truncated).
  using JobFinishedCallback = std::function<void(workload::Job*)>;
  // Fired when the last segment of the plan completes.
  using IdleCallback = std::function<void(int core_id)>;

  Core(int id, const power::PowerModel& pm, sim::Simulator& sim);

  // Non-copyable and non-movable: scheduled events capture `this`.
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;
  Core(Core&&) = delete;
  Core& operator=(Core&&) = delete;

  void set_job_finished_callback(JobFinishedCallback cb) { on_job_finished_ = std::move(cb); }
  void set_idle_callback(IdleCallback cb) { on_idle_ = std::move(cb); }

  int id() const noexcept { return id_; }
  const power::PowerModel& power_model() const noexcept { return *pm_; }

  // Jobs pinned to this core and not yet settled, in assignment order.
  std::vector<workload::Job*>& queue() noexcept { return queue_; }
  const std::vector<workload::Job*>& queue() const noexcept { return queue_; }

  // Replaces the current plan.  Advances execution to sim.now() first.
  // power_cap is the cap assigned by the distribution policy; the plan's
  // peak power must not exceed it (checked).  On return `plan` holds the
  // replaced plan's storage (contents unspecified), so a caller that plans
  // every round can reuse its capacity instead of allocating.
  void install_plan(opt::ExecutionPlan&& plan, double power_cap);

  // Integrates work/energy along the current plan up to time t (<= now).
  // Does not fire callbacks; segment-boundary events do that.
  void advance_to(double t);

  // Removes a job from the queue and erases its not-yet-executed segments.
  // Advances to `now` first so in-flight work is credited.
  void remove_job(workload::Job* job, double now);

  // True if the plan still has work at or after time t.
  bool busy(double t) const;

  // Fault injection: takes the core offline at `now`.  In-flight work is
  // credited up to `now`, the rest of the plan is dropped, and no further
  // plans may be installed.  Jobs already pinned here are stranded (no
  // migration, Sec. II-B) and settle at their deadlines with whatever was
  // executed.  Irreversible.
  void set_offline(double now);
  bool online() const noexcept { return online_; }

  // Speed the core is running at time t (0 when idle).
  double current_speed(double t) const;
  double current_power(double t) const { return pm_->power(current_speed(t)); }

  double energy() const noexcept { return energy_; }
  double busy_time() const noexcept { return speed_stats_.total_time(); }
  const util::TimeWeightedStats& speed_stats() const noexcept { return speed_stats_; }
  double power_cap() const noexcept { return power_cap_; }

 private:
  // Points boundary_event_ at the current segment's end (moving a pending
  // event in place), or cancels it when the plan has run dry.
  void rearm_boundary_event();
  void on_segment_boundary();
  void flush_finished();

  int id_;
  const power::PowerModel* pm_;
  sim::Simulator* sim_;
  std::vector<workload::Job*> queue_;

  opt::ExecutionPlan plan_;
  std::size_t seg_idx_ = 0;
  double seg_credited_ = 0.0;  // units credited on the current segment
  double cursor_ = 0.0;        // time up to which execution is integrated
  sim::EventId boundary_event_ = sim::kInvalidEventId;
  double power_cap_ = 0.0;
  bool online_ = true;
  std::vector<workload::Job*> finished_buffer_;

  double energy_ = 0.0;
  util::TimeWeightedStats speed_stats_;  // busy time only

  JobFinishedCallback on_job_finished_;
  IdleCallback on_idle_;
};

}  // namespace ge::server
