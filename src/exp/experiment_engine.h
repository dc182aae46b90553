// Unified experiment execution: every harness (figure sweeps, ablations,
// replications, ge_sweep) describes its runs as a flat ExperimentPlan of
// RunTasks and hands it to an ExperimentEngine, which executes the tasks
// through util::parallel_for.
//
// Determinism contract: a RunResult depends only on its task's (config,
// spec) and the trace of its point -- run_simulation shares no mutable
// state between runs, and the per-point trace is generated once from the
// point's workload spec (Trace::generate is a pure function of spec,
// horizon and config.seed).  Results are returned indexed by task order,
// never by completion order, so the output of run() is bit-identical for
// any worker count, including 1.
//
// Trace sharing: tasks that name the same point index replay one shared
// trace, generated lazily (once, by whichever worker needs it first) from
// the first such task's config.  All tasks of a point must therefore agree
// on the workload-shaping fields (seed, duration, arrival and demand
// parameters); the engine cross-checks the cheap ones and aborts on a
// mismatch rather than silently unpairing a comparison.
#pragma once

#include <cstddef>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/telemetry.h"

namespace ge::exp {

// One simulation run: a fully-configured experiment (including its seed)
// plus the scheduler to run and the trace-sharing group it belongs to.
struct RunTask {
  ExperimentConfig config;
  SchedulerSpec spec;
  std::size_t point = 0;  // tasks with equal `point` share one trace
};

// A flat, ordered list of runs.  Builders append tasks point-major so that
// consumers can slice the result vector back into per-point groups.
class ExperimentPlan {
 public:
  // Appends a task and returns its index (== result index after run()).
  std::size_t add(ExperimentConfig config, SchedulerSpec spec, std::size_t point);

  // Appends a task in a fresh point of its own and returns the task index.
  std::size_t add_isolated(ExperimentConfig config, SchedulerSpec spec);

  const std::vector<RunTask>& tasks() const noexcept { return tasks_; }
  std::size_t size() const noexcept { return tasks_.size(); }
  bool empty() const noexcept { return tasks_.empty(); }
  // One past the highest point index named by any task (0 when empty).
  std::size_t num_points() const noexcept { return num_points_; }

 private:
  std::vector<RunTask> tasks_;
  std::size_t num_points_ = 0;
};

struct ExecutionOptions {
  // Worker count; 0 means util::default_concurrency().  1 runs every task in
  // order on the calling thread.
  std::size_t jobs = 0;
  // When true the engine prints a live "tasks done | sim-seconds/sec" line
  // to stderr while the plan runs (tables go to stdout, so progress never
  // contaminates captured output).
  bool progress = false;
  // Telemetry outputs requested via --trace / --trace-format / --metrics /
  // --report / --watchdog / --profile.  Each task records into its own
  // RunTelemetry; after the plan finishes the engine merges metrics,
  // serialises traces, and renders the --report directory in task order, so
  // telemetry files inherit the engine's determinism contract
  // (byte-identical for any worker count).  The one deliberate exception is
  // --profile, whose prof.* wall-clock counters measure the host machine.
  obs::TelemetryOptions telemetry;
};

class ExperimentEngine {
 public:
  explicit ExperimentEngine(ExecutionOptions options = {});

  // Executes every task and returns results in task order (see the
  // determinism contract above).
  std::vector<RunResult> run(const ExperimentPlan& plan) const;

  const ExecutionOptions& options() const noexcept { return options_; }
  // The worker count run() will actually use for a plan of `tasks` tasks.
  std::size_t effective_jobs(std::size_t tasks) const noexcept;

 private:
  ExecutionOptions options_;
};

// Convenience: one-shot execution with default options overridden by `exec`.
std::vector<RunResult> run_plan(const ExperimentPlan& plan,
                                const ExecutionOptions& exec = {});

}  // namespace ge::exp
