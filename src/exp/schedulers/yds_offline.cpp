// Registry plugin for the clairvoyant offline YDS reference scheduler.
//
// "YDS" replays the run's whole trace through exp::offline_reference (global
// Longest-First cut at the Q_GE target + preemptive fluid YDS, see
// src/exp/offline_reference.h) and then *settles every job at its deadline
// with the globally cut work, executing nothing on the physical cores*.  Two
// consequences, both deliberate:
//
//   * RunResult::energy is ~0 (no exec slices); the fluid YDS energy lands
//     in RunResult::offline_energy_j instead, so sweeps get a per-run
//     energy lower-bound column next to every online scheduler without
//     corrupting the exec-span energy identity checks.
//   * quality ~= the Q_GE target, by construction of the global cut.
//
// It is a pseudo-scheduler: useful as a reference column, meaningless as a
// server policy.  Single-server only (a fleet would recompute the same
// whole-trace bound once per node).
#include <algorithm>
#include <memory>

#include "core/scheduler.h"
#include "exp/config.h"
#include "exp/offline_reference.h"
#include "exp/scheduler_registry.h"
#include "exp/scheduler_spec.h"
#include "util/check.h"
#include "workload/trace.h"

namespace ge::exp {
namespace {

class YdsOfflineScheduler final : public sched::Scheduler {
 public:
  YdsOfflineScheduler(const sched::SchedulerEnv& env,
                      const ExperimentConfig& cfg)
      : sched::Scheduler(env, "YDS") {
    // Clairvoyance: regenerate the run's exact job stream (same spec, same
    // horizon/cap => bit-identical trace) and take the offline reference.
    const workload::Trace trace =
        workload::Trace::generate(cfg.workload_spec(), cfg.duration,
                                  cfg.max_jobs);
    const OfflineReference ref = offline_reference(trace, cfg.q_ge, cfg);
    cut_level_ = ref.cut_level;
    bound_energy_ = ref.energy;
  }

  // Jobs just wait: the offline schedule is only accounted, not executed.
  void on_job_arrival(workload::Job*) override {}

  void on_deadline(workload::Job* job) override {
    if (job->settled) return;
    job->target = std::min(job->demand, cut_level_);
    job->executed = job->target;
    settle(job);
  }

  double offline_bound_energy() const override { return bound_energy_; }

 private:
  double cut_level_ = 0.0;
  double bound_energy_ = 0.0;
};

SchedulerPlugin make_yds() {
  SchedulerPlugin p;
  p.name = "YDS";
  p.aliases = {"offline", "yds-offline"};
  p.summary =
      "Clairvoyant offline reference: global LF cut + fluid YDS energy "
      "lower bound (single-server)";
  p.factory = [](const SchedulerSpec&, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg,
                 const power::DiscreteSpeedTable*) {
    GE_CHECK(cfg.num_servers == 1,
             "YDS is a single-server offline reference (its bound covers the "
             "whole trace; a fleet would just recompute it per node)");
    return std::make_unique<YdsOfflineScheduler>(env, cfg);
  };
  return p;
}

}  // namespace

std::vector<SchedulerPlugin> yds_offline_plugins() {
  return {make_yds()};
}

}  // namespace ge::exp
