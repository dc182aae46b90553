// Scheduler interface: the contract between the simulation runner and a
// scheduling algorithm.
//
// The runner feeds the scheduler three kinds of stimuli -- job arrivals,
// idle-core notifications, and per-job deadline expirations -- and the
// scheduler reacts by pinning jobs to cores and installing execution plans.
// Settlement (freezing a job's quality contribution once it completes or
// expires) lives in the base class so every algorithm accounts quality
// identically.
#pragma once

#include <cstdint>
#include <string>

#include "quality/quality_function.h"
#include "quality/quality_monitor.h"
#include "server/multicore_server.h"
#include "sim/simulator.h"
#include "workload/job.h"

namespace ge::obs {
class Counter;
class Histogram;
class TraceBuffer;
}

namespace ge::sched {

// Counters of an algorithm: time in the AES / BQ modes (Fig. 1), rounds by
// power-distribution branch (hybrid diagnostics) and the current mode.
// Algorithms without rounds or modes report the zero-initialised struct.
struct SchedulerStats {
  double aes_s = 0.0;
  double bq_s = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t wf_rounds = 0;  // Water-Filling rounds
  std::uint64_t es_rounds = 0;  // Equal-Sharing rounds
  int mode = -1;                // 0 = AES, 1 = BQ, -1 = no mode concept
};

struct SchedulerEnv {
  sim::Simulator* sim = nullptr;
  server::MulticoreServer* server = nullptr;
  const quality::QualityFunction* quality_function = nullptr;
  quality::QualityMonitor* monitor = nullptr;

  bool valid() const noexcept {
    return sim && server && quality_function && monitor;
  }
};

class Scheduler {
 public:
  Scheduler(SchedulerEnv env, std::string name);
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Called once before the first arrival (arm periodic triggers here).
  virtual void start() {}

  // A new request entered the system.
  virtual void on_job_arrival(workload::Job* job) = 0;

  // A core drained its plan.
  virtual void on_core_idle(int core_id) { (void)core_id; }

  // A core finished a plan segment: the job received all the work the
  // current plan intended for it.  Default: settle it.
  virtual void on_job_finished(workload::Job* job);

  // The job's deadline passed.  Default: settle it as-is (partial or zero
  // quality) if still open.
  virtual void on_deadline(workload::Job* job);

  // End of run: settle anything still open.  Runners call this after the
  // drain period; with per-job deadline events it is normally a no-op.
  virtual void finish() {}

  const std::string& name() const noexcept { return name_; }

  // Mode times up to `now`, round counts and the current mode.
  virtual SchedulerStats stats(double now) const { (void)now; return {}; }

  // Jobs waiting for assignment (timeline observability).
  virtual std::size_t backlog() const { return 0; }

  // Clairvoyant offline energy bound for the run's whole trace (J), or < 0
  // when the scheduler computes none.  Only the offline reference plugins
  // (e.g. YDS) override this; the runner copies node 0's value into
  // RunResult::offline_energy_j as a per-run lower-bound column.
  virtual double offline_bound_energy() const { return -1.0; }

 protected:
  // Freezes the job's quality contribution and detaches it from its core.
  // Idempotent.
  void settle(workload::Job* job);

  double now() const noexcept { return env_.sim->now(); }

  // Trace buffer of the run, or nullptr when tracing is off.  Cached at
  // construction (the runner installs telemetry on the simulator before
  // building the scheduler), so subclasses pay one pointer test per emit.
  obs::TraceBuffer* trace() const noexcept { return trace_; }

  SchedulerEnv env_;

  // Handles of the ge.* round family (null when metrics are off), which
  // the base registers for every algorithm; only the GE engine counts.
  obs::Counter* m_rounds_ = nullptr;
  obs::Counter* m_rounds_aes_ = nullptr;
  obs::Counter* m_rounds_bq_ = nullptr;
  obs::Counter* m_rounds_es_ = nullptr;
  obs::Counter* m_rounds_wf_ = nullptr;
  obs::Counter* m_mode_switches_ = nullptr;
  obs::Counter* m_plans_ = nullptr;
  obs::Counter* m_qopt_trims_ = nullptr;
  obs::Counter* m_edf_rebuilds_ = nullptr;
  obs::Counter* m_edf_skips_ = nullptr;
  obs::Histogram* m_cut_level_ = nullptr;

 private:
  std::string name_;

  // Cached metric handles (null when metrics are off); see the catalog in
  // docs/OBSERVABILITY.md for the semantics of each.
  obs::TraceBuffer* trace_ = nullptr;
  obs::Counter* m_settled_ = nullptr;
  obs::Counter* m_cut_ = nullptr;
  obs::Counter* m_missed_ = nullptr;
  obs::Histogram* m_response_ms_ = nullptr;
  obs::Histogram* m_slack_ms_ = nullptr;
  obs::Histogram* m_job_quality_ = nullptr;
};

}  // namespace ge::sched
