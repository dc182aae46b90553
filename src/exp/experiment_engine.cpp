#include "exp/experiment_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

#include "cluster/cluster.h"
#include "obs/analysis/report.h"
#include "power/discrete_speed.h"
#include "util/check.h"
#include "util/parallel_for.h"
#include "workload/trace.h"

namespace ge::exp {
namespace {

// Lazily-generated shared trace of one plan point.  once_flag makes the
// first worker to reach the point generate the trace while the others
// block, so every task of the point replays identical randomness no matter
// which worker gets there first.
struct TraceSlot {
  std::once_flag once;
  workload::Trace trace;
};

// Live progress shared by the workers; guarded by its own mutex so slow
// stderr writes never serialise the simulations themselves.
class ProgressMeter {
 public:
  ProgressMeter(std::size_t total, bool enabled)
      : total_(total), enabled_(enabled),
        start_(std::chrono::steady_clock::now()) {}

  void task_done(double sim_seconds) {
    if (!enabled_) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    sim_seconds_ += sim_seconds;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    std::fprintf(stderr, "\r[engine] %zu/%zu tasks | %.0f sim-s | %.1f sim-s/s ",
                 done_, total_, sim_seconds_,
                 wall > 0.0 ? sim_seconds_ / wall : 0.0);
    if (done_ == total_) {
      std::fprintf(stderr, "\n");
    }
    std::fflush(stderr);
  }

 private:
  std::mutex mu_;
  std::size_t total_;
  bool enabled_;
  std::chrono::steady_clock::time_point start_;
  std::size_t done_ = 0;
  double sim_seconds_ = 0.0;
};

obs::TraceTaskInfo task_info(std::size_t index, const RunTask& task) {
  obs::TraceTaskInfo info;
  info.task = index;
  info.scheduler = task.spec.display_name();
  info.arrival_rate = task.config.arrival_rate;
  // Cores per server: the largest server's count, so every core index the
  // trace names lies below it on heterogeneous --server-cores fleets too.
  for (std::size_t s = 0; s < task.config.num_servers; ++s) {
    info.cores = std::max(info.cores, task.config.server_core_count(s));
  }
  info.power_budget = effective_budget(task.spec, task.config);
  info.power_model_json = task.config.power_model().describe_json();
  if (task.config.discrete_speeds) {
    // The fleet-wide ladder; heterogeneous --server-max-ghz fleets cap it
    // per server, and a capped uniform ladder is a subset of this one, so
    // every realised speed is still one of these levels (the reclaim
    // advisor's discrete-envelope argument relies on exactly that).
    info.ladder_units = power::DiscreteSpeedTable::uniform_ghz(
                            task.config.discrete_step_ghz,
                            task.config.discrete_max_ghz,
                            task.config.power_model().units_per_ghz())
                            .levels();
  }
  return info;
}

// Serialises the per-task telemetry in task order (the only order that keeps
// the output independent of worker scheduling).
void write_telemetry(const obs::TelemetryOptions& opts,
                     const std::vector<RunTask>& tasks,
                     const std::vector<std::unique_ptr<obs::RunTelemetry>>& telem) {
  if (!opts.metrics_path.empty()) {
    obs::MetricsRegistry merged;
    for (const auto& t : telem) {
      merged.merge(t->metrics);
    }
    std::ofstream out(opts.metrics_path);
    GE_CHECK(out.good(), "cannot open --metrics output file");
    merged.write_json(out);
  }
  if (!opts.trace_path.empty()) {
    std::ofstream out(opts.trace_path);
    GE_CHECK(out.good(), "cannot open --trace output file");
    obs::TraceWriter writer(out, opts.trace_format);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      writer.append_task(task_info(i, tasks[i]), telem[i]->trace);
    }
    writer.close();
  }
}

// Renders the --report directory from the in-memory trace buffers.  Running
// in-process, the analysis sees the exact per-core power models and the
// exact energy accrual terms, so the residency-vs-reported cross-check holds
// to 1e-9 relative (ReportOptions default); tasks are added in task order,
// so report bytes inherit the engine's any---jobs determinism.
//
// The reclaim advisor runs as part of the report pass, so its numbers flow
// back out: `results` gains the reclaim_* columns and each task's metrics
// registry gains the reclaim.* counters (additive joules, merge-safe) --
// which is why reports must render before write_telemetry serialises the
// metrics file.
void write_report(const std::string& dir, const std::vector<RunTask>& tasks,
                  const std::vector<std::unique_ptr<obs::RunTelemetry>>& telem,
                  std::vector<RunResult>& results) {
  obs::analysis::ReportWriter writer;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const RunTask& task = tasks[i];
    obs::analysis::TaskInput input;
    input.info = task_info(i, task);
    input.buffer = &telem[i]->trace;
    for (const cluster::NodeSpec& node :
         task.config.cluster_node_specs(input.info.power_budget)) {
      input.models.push_back(node.core_models);
    }
    input.reported_energy_j = results[i].energy;
    if (task.config.num_tenants > 1) {
      input.tenant_q_ge.reserve(task.config.num_tenants);
      for (std::size_t t = 0; t < task.config.num_tenants; ++t) {
        input.tenant_q_ge.push_back(task.config.tenant_q_target(t));
      }
    }
    writer.add_task(input);

    const obs::analysis::ReclaimAnalysis& reclaim = writer.reclaims()[i];
    results[i].reclaim_energy_j = reclaim.cont_j;
    results[i].reclaim_disc_j = reclaim.disc_j;
    results[i].reclaim_offline_j = reclaim.offline_j;
    telem[i]->metrics.counter("reclaim.realized_j", "J").add(reclaim.realized_j);
    telem[i]->metrics.counter("reclaim.energy_j", "J").add(reclaim.cont_j);
    telem[i]->metrics.counter("reclaim.disc_j", "J").add(reclaim.disc_j);
    telem[i]->metrics.counter("reclaim.offline_j", "J").add(reclaim.offline_j);
  }
  writer.write_directory(dir);
}

}  // namespace

std::size_t ExperimentPlan::add(ExperimentConfig config, SchedulerSpec spec,
                                std::size_t point) {
  num_points_ = std::max(num_points_, point + 1);
  tasks_.push_back(RunTask{std::move(config), std::move(spec), point});
  return tasks_.size() - 1;
}

std::size_t ExperimentPlan::add_isolated(ExperimentConfig config,
                                         SchedulerSpec spec) {
  return add(std::move(config), std::move(spec), num_points_);
}

ExperimentEngine::ExperimentEngine(ExecutionOptions options)
    : options_(options) {}

std::size_t ExperimentEngine::effective_jobs(std::size_t tasks) const noexcept {
  const std::size_t requested =
      options_.jobs == 0 ? util::default_concurrency() : options_.jobs;
  return std::max<std::size_t>(1, std::min(requested, tasks));
}

std::vector<RunResult> ExperimentEngine::run(const ExperimentPlan& plan) const {
  const std::vector<RunTask>& tasks = plan.tasks();
  std::vector<RunResult> results(tasks.size());
  if (tasks.empty()) {
    return results;
  }

  // The first task of each point defines the point's trace; later tasks
  // must describe the same workload or the "shared trace" pairing is a lie.
  std::vector<const RunTask*> point_owner(plan.num_points(), nullptr);
  for (const RunTask& task : tasks) {
    const RunTask*& owner = point_owner[task.point];
    if (owner == nullptr) {
      owner = &task;
      continue;
    }
    GE_CHECK(task.config.seed == owner->config.seed &&
                 task.config.duration == owner->config.duration &&
                 task.config.arrival_rate == owner->config.arrival_rate &&
                 task.config.max_jobs == owner->config.max_jobs,
             "tasks sharing a plan point must share the workload "
             "(seed/duration/arrival_rate/max_jobs mismatch)");
  }

  std::vector<std::unique_ptr<TraceSlot>> trace_cache(plan.num_points());
  for (auto& slot : trace_cache) {
    slot = std::make_unique<TraceSlot>();
  }

  const bool want_telemetry = options_.telemetry.enabled();
  std::vector<std::unique_ptr<obs::RunTelemetry>> telem(
      want_telemetry ? tasks.size() : 0);
  for (auto& t : telem) {
    t = std::make_unique<obs::RunTelemetry>();
    // Reports and the watchdog both consume trace events, so either implies
    // event capture even when no --trace file was requested.
    t->want_trace = !options_.telemetry.trace_path.empty() ||
                    !options_.telemetry.report_dir.empty() ||
                    options_.telemetry.watchdog;
    t->want_watchdog = options_.telemetry.watchdog;
    if (options_.telemetry.profile) {
      t->enable_profiling();
    }
  }

  auto run_task = [&](std::size_t i) {
    const RunTask& task = tasks[i];
    if (task.config.stream) {
      // Streaming tasks generate their own workload on the fly (bounded
      // memory); the generator replays the exact stream the shared trace
      // would materialise, so point pairing still compares identical
      // randomness.
      results[i] = run_simulation_stream(task.config, task.spec, nullptr,
                                         want_telemetry ? telem[i].get() : nullptr);
      return;
    }
    TraceSlot& slot = *trace_cache[task.point];
    std::call_once(slot.once, [&] {
      const ExperimentConfig& cfg = point_owner[task.point]->config;
      slot.trace = workload::Trace::generate(cfg.workload_spec(), cfg.duration,
                                             cfg.max_jobs);
    });
    results[i] = run_simulation(task.config, task.spec, slot.trace, nullptr,
                                want_telemetry ? telem[i].get() : nullptr);
  };

  ProgressMeter meter(tasks.size(), options_.progress);
  util::parallel_for(effective_jobs(tasks.size()), tasks.size(), [&](std::size_t i) {
    run_task(i);
    meter.task_done(tasks[i].config.duration);
  });

  if (want_telemetry) {
    // Reports first: the reclaim advisor backfills results and injects its
    // reclaim.* counters, which the metrics file must include.
    if (!options_.telemetry.report_dir.empty()) {
      write_report(options_.telemetry.report_dir, tasks, telem, results);
    }
    write_telemetry(options_.telemetry, tasks, telem);
  }
  return results;
}

std::vector<RunResult> run_plan(const ExperimentPlan& plan,
                                const ExecutionOptions& exec) {
  return ExperimentEngine(exec).run(plan);
}

}  // namespace ge::exp
