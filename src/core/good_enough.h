// The "Good Enough" (GE) scheduling engine (Sec. III).
//
// GE is an online batch scheduler driven by three triggering events
// (Sec. III-E): a periodic quantum, cores going idle while work waits, and
// the waiting queue reaching a counter threshold.  Every scheduling round:
//
//   1. expired waiting jobs are settled;
//   2. waiting jobs are pinned to cores with Cumulative Round-Robin;
//   3. the execution mode is chosen: AES (cut jobs to the good-enough level)
//      while the monitored quality is at/above Q_GE, BQ (run everything to
//      completion) below it -- the compensation policy of Sec. III-C;
//   4. per-core cut targets are set (Longest-First cutting in AES);
//   5. the power budget is split into per-core caps (Equal-Sharing below the
//      critical load, Water-Filling above -- the hybrid policy of
//      Sec. III-D);
//   6. per core: if the cap cannot meet the targets, Quality-OPT trims them
//      optimally; Energy-OPT then builds the minimal-energy speed plan,
//      optionally rectified onto a discrete DVFS ladder, and the core runs
//      it until the next round.
//
// The engine doubles as the paper's comparison algorithms through options:
//   BE  = no cutting (always BQ) + always Water-Filling;
//   OQ  = cut to Q_GE + 2% and never compensate;
//   GE-no-comp, GE-forced-ES, GE-forced-WF = the Fig. 5/6/7 ablations;
//   BE-P = BE on a calibrated (smaller) budget;
//   BE-S = BE with a calibrated per-core speed cap.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/assignment.h"
#include "core/load_estimator.h"
#include "core/scheduler.h"
#include "opt/energy_opt.h"
#include "opt/job_cutter.h"
#include "opt/quality_opt.h"
#include "power/discrete_speed.h"
#include "power/distribution.h"

namespace ge::obs {
class Profiler;
}  // namespace ge::obs

namespace ge::sched {

struct GoodEnoughOptions {
  // Monitored quality threshold Q_GE that triggers compensation.
  double q_ge = 0.9;
  // AES cutting target (OQ sets q_ge + 0.02).
  double cut_target = 0.9;
  // false disables the AES mode entirely: every round runs BQ (Best Effort).
  bool cutting = true;
  // false disables the compensation policy: with cutting on, the scheduler
  // stays in AES regardless of the monitored quality (Fig. 5 ablation).
  bool compensation = true;

  power::DistributionPolicy power_policy = power::DistributionPolicy::kHybrid;
  // Arrival rate (req/s) separating light from heavy load for the hybrid
  // policy.
  double critical_load = 154.0;
  // Trailing window of the arrival-rate estimator.
  double load_window = 2.0;

  // Triggering events (Sec. III-E / IV-B).
  double quantum = 0.5;       // seconds
  int counter_threshold = 8;  // waiting jobs

  // Discrete DVFS ladder; nullptr = continuous speed scaling.
  const power::DiscreteSpeedTable* speed_table = nullptr;

  // Per-core speed cap in units/s (BE-S control policy); infinity = none.
  double core_speed_cap = std::numeric_limits<double>::infinity();

  // Plain (non-cumulative) round-robin assignment, for the C-RR ablation.
  bool cumulative_rr = true;
};

class GoodEnoughScheduler : public Scheduler {
 public:
  enum class Mode { kAes, kBq };

  GoodEnoughScheduler(SchedulerEnv env, GoodEnoughOptions options,
                      std::string name = "GE");

  void start() override;
  void on_job_arrival(workload::Job* job) override;
  void on_core_idle(int core_id) override;
  void on_job_finished(workload::Job* job) override;
  void on_deadline(workload::Job* job) override;
  void finish() override;

  SchedulerStats stats(double now) const override;
  std::size_t backlog() const override { return waiting_.size(); }

  const GoodEnoughOptions& options() const noexcept { return options_; }

 private:
  void schedule_round();
  void account_mode_time();
  Mode choose_mode() const;
  // Rebuilds the per-core EDF queues (open jobs in (deadline, id) order)
  // into edf_cache_.  Called once per round after expired jobs settle;
  // set_targets, core_power_demand and plan_core all consume the cached
  // order instead of re-sorting the queue (jobs settled mid-round stay in
  // the cache and are skipped by their `settled` flag, which preserves the
  // exact filtered sequence a fresh sort would produce).
  //
  // Incremental rounds: only *dirty* cores -- those whose queue membership
  // or online state changed since the last rebuild (assignment, any
  // settlement, failure/repair) -- are re-scanned and re-sorted.  A clean
  // core's cache is provably identical to what a rebuild would produce:
  // membership only changes through tracked mutations, and (deadline, id)
  // is a total order, so equal membership forces an equal sequence.  This
  // also keeps cache pointers valid without quarantine: every settlement
  // dirties its core, so a clean cache holds live jobs only.
  void refresh_edf_cache();
  void mark_core_dirty(int core_id);
  // settle() + dirty-marking for the job's core; all settlements inside the
  // GE engine route through this so the incremental cache stays exact.
  void settle_tracked(workload::Job* job);
  // Sets job->target for every open job on the core according to the mode.
  void set_targets(server::Core& core, Mode mode);
  // Fills plan_jobs_ with the core's open jobs at time `t`, in EDF-cache
  // order: not settled, deadline past t + kTimeEps, remaining target above
  // kWorkEps.
  void collect_plan_jobs(const server::Core& core, double t);
  // Per-core power demand (W) to finish its remaining targets by deadline.
  double core_power_demand(server::Core& core);
  // Splits the power budget into per-core caps, written to caps_.
  void distribute_power();
  void plan_core(server::Core& core, double cap_watts, double* budget_slack);
  void arm_quantum();

  GoodEnoughOptions options_;
  CumulativeRoundRobin assigner_;
  LoadEstimator load_;
  std::vector<workload::Job*> waiting_;

  Mode mode_ = Mode::kAes;
  double mode_accounted_until_ = 0.0;
  double aes_time_ = 0.0;
  double bq_time_ = 0.0;

  std::uint64_t rounds_ = 0;
  std::uint64_t wf_rounds_ = 0;
  std::uint64_t es_rounds_ = 0;
  bool in_round_ = false;
  sim::EventId quantum_event_ = sim::kInvalidEventId;

  // Round-scoped scratch buffers, reused across rounds so the per-round
  // replanning allocates nothing in steady state (hot-path optimisation;
  // bit-identical outputs are guarded by tests/test_kernel_equivalence.cpp).
  std::vector<std::vector<workload::Job*>> edf_cache_;  // per-core EDF order
  // Struct-of-arrays hot lane: each core's job demands in EDF-cache order.
  // `demand` is immutable after admission, so the lane stays exact while
  // the cache is clean; AES cutting consumes it as one contiguous copy
  // instead of chasing Job pointers.
  std::vector<std::vector<double>> edf_demand_;
  // Per-core change tracking for incremental rounds (1 = must rebuild).
  std::vector<std::uint8_t> edf_dirty_;
  std::vector<std::uint8_t> edf_online_;  // online state at last rebuild
  // Per-core memo of the last AES cut: cut_longest_first is a pure function
  // of the demand lane (plus the fixed quality function and cut target), so
  // its targets and level stay exact while the core's cache stays clean.
  // A rebuild clears cut_valid_.
  std::vector<std::vector<double>> cut_targets_;
  std::vector<double> cut_levels_;
  std::vector<std::uint8_t> cut_valid_;
  std::vector<opt::PlanJob> plan_jobs_;
  std::vector<opt::AllocJob> alloc_jobs_;
  std::vector<opt::PlanJob> trimmed_;
  // Plan under construction; install_plan hands back the replaced plan's
  // storage, so segment buffers circulate between cores instead of being
  // allocated per plan.
  opt::ExecutionPlan plan_;
  std::vector<double> demand_watts_;
  std::vector<double> caps_;
  std::vector<std::size_t> order_;
  // Snapshot of a core queue for the settlement sweeps (settle() mutates
  // the queue being walked).
  std::vector<workload::Job*> queue_scratch_;
  opt::CutScratch cut_scratch_;
  opt::QualityOptScratch qopt_scratch_;

  // Wall-clock self-profiling spans (--profile); null when profiling is off.
  obs::Profiler* prof_ = nullptr;
};

}  // namespace ge::sched
