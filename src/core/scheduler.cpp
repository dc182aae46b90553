#include "core/scheduler.h"

#include <algorithm>

#include "obs/telemetry.h"
#include "util/check.h"

namespace ge::sched {
namespace {

// A job counts as having reached its (cut) target within this many units.
constexpr double kTargetTol = 1e-6;

}  // namespace

Scheduler::Scheduler(SchedulerEnv env, std::string name)
    : env_(env), name_(std::move(name)) {
  GE_CHECK(env_.valid(), "scheduler environment is incomplete");
  if (obs::Telemetry* tel = env_.sim->telemetry()) {
    trace_ = tel->trace;
    if (tel->metrics != nullptr) {
      obs::MetricsRegistry& reg = *tel->metrics;
      m_settled_ = &reg.counter("jobs.settled", "jobs");
      m_cut_ = &reg.counter("jobs.cut", "jobs");
      m_missed_ = &reg.counter("jobs.deadline_missed", "jobs");
      m_response_ms_ = &reg.histogram(
          "job.response_ms",
          {10, 25, 50, 75, 100, 125, 150, 200, 250, 300, 400, 500, 750, 1000},
          "ms");
      m_slack_ms_ = &reg.histogram(
          "job.deadline_slack_ms", {0, 1, 5, 10, 25, 50, 75, 100, 150, 250, 500},
          "ms");
      m_job_quality_ = &reg.histogram(
          "job.quality", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
          "ratio");
      // The GE round family is registered for every algorithm (zeros for
      // those without GE rounds), so the metric-name set of a run does not
      // depend on its scheduler.
      m_rounds_ = &reg.counter("ge.rounds", "rounds");
      m_rounds_aes_ = &reg.counter("ge.rounds_aes", "rounds");
      m_rounds_bq_ = &reg.counter("ge.rounds_bq", "rounds");
      m_rounds_es_ = &reg.counter("ge.rounds_equal_sharing", "rounds");
      m_rounds_wf_ = &reg.counter("ge.rounds_water_filling", "rounds");
      m_mode_switches_ = &reg.counter("ge.mode_switches", "switches");
      m_plans_ = &reg.counter("ge.plan_recomputations", "plans");
      m_qopt_trims_ = &reg.counter("ge.quality_opt_trims", "plans");
      m_edf_rebuilds_ = &reg.counter("ge.edf_rebuilds", "cores");
      m_edf_skips_ = &reg.counter("ge.edf_skips", "cores");
      m_cut_level_ = &reg.histogram(
          "ge.cut_level_units",
          {130, 200, 300, 400, 500, 600, 700, 800, 900, 1000}, "units");
    }
  }
}

void Scheduler::on_job_finished(workload::Job* job) { settle(job); }

void Scheduler::on_deadline(workload::Job* job) {
  if (!job->settled) {
    settle(job);
  }
}

void Scheduler::settle(workload::Job* job) {
  if (job->settled) {
    return;
  }
  if (job->assigned()) {
    env_.server->core(static_cast<std::size_t>(job->core))
        .remove_job(job, env_.sim->now());
  }
  job->settled = true;
  // The response leaves the system now, but never conceptually later than
  // the deadline (lazy settlement of expired jobs happens at the next
  // scheduling round).
  job->finish_time = std::min(env_.sim->now(), job->deadline);
  env_.monitor->settle(job->executed, job->demand);

  // "Miss": the deadline truncated the job before it reached its (cut)
  // target -- including jobs that expired waiting and never got a target.
  const bool reached_target =
      job->target > kTargetTol && job->executed >= job->target - kTargetTol;
  const bool missed = !reached_target && job->executed < job->demand - kTargetTol;
  if (m_settled_ != nullptr) {
    m_settled_->increment();
    if (job->target < job->demand - kTargetTol) {
      m_cut_->increment();
    }
    if (missed) {
      m_missed_->increment();
    }
    m_response_ms_->observe((job->finish_time - job->arrival) * 1000.0);
    m_slack_ms_->observe((job->deadline - job->finish_time) * 1000.0);
    const double potential = env_.quality_function->value(job->demand);
    m_job_quality_->observe(
        potential > 0.0
            ? env_.quality_function->value(std::min(job->executed, job->demand)) /
                  potential
            : 1.0);
  }
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.type = missed ? obs::TraceEventType::kDeadlineMiss
                     : obs::TraceEventType::kCompletion;
    ev.t = job->finish_time;
    ev.core = job->core;
    ev.job = static_cast<std::int64_t>(job->id);
    ev.a = job->executed;
    ev.b = job->demand;
    ev.c = env_.monitor->quality();
    trace_->push(ev);
  }
}

}  // namespace ge::sched
