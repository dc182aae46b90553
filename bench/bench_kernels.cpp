// Microbenchmarks of the algorithmic kernels (google-benchmark): LF job
// cutting, water-filling, the Energy-OPT planner, the Quality-OPT
// allocator, YDS, the power model, the quality functions, plan
// rectification, the response-time quantile collector, the event queue, a
// full GE scheduling round, and the report pipeline's passes (reclaim
// advisor, JSONL writer and reader, report-dir loader).
//
// Emitting the machine-readable trajectory (see docs/BENCHMARKS.md; one
// command line, wrapped here):
//
//   bench_kernels --benchmark_repetitions=7
//     --benchmark_report_aggregates_only=true
//     --benchmark_format=json --benchmark_out=BENCH_kernels.json
//
// tools/bench_compare.py gates regressions between two such files.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/good_enough.h"
#include "core/load_estimator.h"
#include "core/plan_rectifier.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/dashboard.h"
#include "obs/analysis/reclaim.h"
#include "obs/analysis/report.h"
#include "obs/analysis/trace_reader.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "opt/energy_opt.h"
#include "opt/job_cutter.h"
#include "opt/quality_opt.h"
#include "opt/yds.h"
#include "power/discrete_speed.h"
#include "power/distribution.h"
#include "power/power_model.h"
#include "quality/quality_function.h"
#include "quality/quality_monitor.h"
#include "server/multicore_server.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/quantiles.h"
#include "util/rng.h"
#include "workload/job.h"
#include "workload/trace.h"

namespace {

// Stamp the *project's* build type into the JSON context; see
// tools/bench_compare.py, which refuses debug-built baselines on this key
// (`library_build_type` only describes the installed benchmark library).
const bool ge_build_type_registered = [] {
#ifdef NDEBUG
  benchmark::AddCustomContext("ge_build_type", "release");
#else
  benchmark::AddCustomContext("ge_build_type", "debug");
#endif
  return true;
}();

using ge::quality::ExponentialQuality;

const ExponentialQuality& paper_f() {
  static const ExponentialQuality f(0.003, 1000.0);
  return f;
}

std::vector<double> random_demands(std::size_t n, std::uint64_t seed) {
  ge::util::Rng rng(seed);
  std::vector<double> demands(n);
  for (double& d : demands) {
    d = rng.uniform(130.0, 1000.0);
  }
  return demands;
}

// Random EDF-sorted plan jobs backed by `jobs` (all released at t = 0).
std::vector<ge::opt::PlanJob> random_plan_jobs(std::vector<ge::workload::Job>& jobs,
                                               std::size_t n, std::uint64_t seed) {
  ge::util::Rng rng(seed);
  jobs.assign(n, ge::workload::Job{});
  std::vector<ge::opt::PlanJob> plan_jobs;
  plan_jobs.reserve(n);
  double deadline = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    deadline += rng.uniform(0.005, 0.05);
    jobs[i].id = i + 1;
    jobs[i].deadline = deadline;
    jobs[i].demand = jobs[i].target = rng.uniform(50.0, 500.0);
    plan_jobs.push_back(ge::opt::PlanJob{&jobs[i], jobs[i].demand, deadline});
  }
  return plan_jobs;
}

// --- Job cutting -----------------------------------------------------------

void BM_JobCutterLongestFirst(benchmark::State& state) {
  const auto demands = random_demands(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::opt::cut_longest_first(demands, paper_f(), 0.9));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JobCutterLongestFirst)->Range(4, 1024);

void BM_JobCutterScratchReuse(benchmark::State& state) {
  // The scheduler-facing path: one CutScratch reused across rounds.
  const auto demands = random_demands(static_cast<std::size_t>(state.range(0)), 1);
  ge::opt::CutScratch scratch;
  for (auto _ : state) {
    ge::opt::cut_longest_first(demands, paper_f(), 0.9, scratch);
    benchmark::DoNotOptimize(scratch.result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JobCutterScratchReuse)->Range(4, 1024);

void BM_CutLevelBisection(benchmark::State& state) {
  const auto demands = random_demands(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::opt::cut_level_for_quality(demands, paper_f(), 0.9));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CutLevelBisection)->Range(4, 1024);

// --- Power distribution and the power model --------------------------------

void BM_WaterFilling(benchmark::State& state) {
  ge::util::Rng rng(3);
  std::vector<double> demands(static_cast<std::size_t>(state.range(0)));
  for (double& d : demands) {
    d = rng.uniform(0.0, 40.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::power::water_filling(160.0, demands));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WaterFilling)->Range(4, 1024);

void BM_PowerModelPower(benchmark::State& state) {
  // The paper's P = a s^2 curve: the hottest arithmetic in the stack
  // (energy accounting, water-filling demands, plan peak power).
  const ge::power::PowerModel pm(5.0, 2.0, 1000.0);
  ge::util::Rng rng(11);
  std::vector<double> speeds(1024);
  for (double& s : speeds) {
    s = rng.uniform(0.0, 3200.0);
  }
  for (auto _ : state) {
    double acc = 0.0;
    for (double s : speeds) {
      acc += pm.power(s);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(speeds.size()));
}
BENCHMARK(BM_PowerModelPower);

void BM_PowerModelPowerCubic(benchmark::State& state) {
  // Non-specialised exponent (beta = 3): the generic std::pow path.
  const ge::power::PowerModel pm(5.0, 3.0, 1000.0);
  ge::util::Rng rng(12);
  std::vector<double> speeds(1024);
  for (double& s : speeds) {
    s = rng.uniform(0.0, 3200.0);
  }
  for (auto _ : state) {
    double acc = 0.0;
    for (double s : speeds) {
      acc += pm.power(s);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(speeds.size()));
}
BENCHMARK(BM_PowerModelPowerCubic);

void BM_PowerModelSpeedForPower(benchmark::State& state) {
  const ge::power::PowerModel pm(5.0, 2.0, 1000.0);
  ge::util::Rng rng(13);
  std::vector<double> watts(1024);
  for (double& w : watts) {
    w = rng.uniform(0.0, 60.0);
  }
  for (auto _ : state) {
    double acc = 0.0;
    for (double w : watts) {
      acc += pm.speed_for_power(w);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(watts.size()));
}
BENCHMARK(BM_PowerModelSpeedForPower);

// --- Quality functions ------------------------------------------------------

void BM_QualityFunctionValue(benchmark::State& state) {
  double x = 0.0;
  for (auto _ : state) {
    x += 1.0;
    if (x > 1000.0) {
      x = 0.0;
    }
    benchmark::DoNotOptimize(paper_f().value(x));
  }
}
BENCHMARK(BM_QualityFunctionValue);

void BM_QualityFunctionInverse(benchmark::State& state) {
  double q = 0.0;
  for (auto _ : state) {
    q += 0.001;
    if (q > 0.999) {
      q = 0.0;
    }
    benchmark::DoNotOptimize(paper_f().inverse(q));
  }
}
BENCHMARK(BM_QualityFunctionInverse);

void BM_PowerLawQualityValue(benchmark::State& state) {
  const ge::quality::PowerLawQuality f(0.5, 1000.0);
  double x = 0.0;
  for (auto _ : state) {
    x += 1.0;
    if (x > 1000.0) {
      x = 0.0;
    }
    benchmark::DoNotOptimize(f.value(x));
  }
}
BENCHMARK(BM_PowerLawQualityValue);

void BM_PowerLawQualityInverse(benchmark::State& state) {
  const ge::quality::PowerLawQuality f(0.5, 1000.0);
  double q = 0.0;
  for (auto _ : state) {
    q += 0.001;
    if (q > 0.999) {
      q = 0.0;
    }
    benchmark::DoNotOptimize(f.inverse(q));
  }
}
BENCHMARK(BM_PowerLawQualityInverse);

// --- Planners ---------------------------------------------------------------

void BM_RequiredSpeed(benchmark::State& state) {
  std::vector<ge::workload::Job> jobs;
  const auto plan_jobs =
      random_plan_jobs(jobs, static_cast<std::size_t>(state.range(0)), 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::opt::required_speed(0.0, plan_jobs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RequiredSpeed)->Range(4, 256);

void BM_EnergyOptPlanner(benchmark::State& state) {
  std::vector<ge::workload::Job> jobs;
  const auto plan_jobs =
      random_plan_jobs(jobs, static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::opt::plan_min_energy(0.0, plan_jobs, 1e9));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EnergyOptPlanner)->Range(4, 256);

void BM_QualityOptAllocator(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ge::util::Rng rng(5);
  std::vector<ge::opt::AllocJob> jobs;
  double deadline = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    deadline += rng.uniform(0.005, 0.05);
    jobs.push_back(ge::opt::AllocJob{rng.uniform(0.0, 100.0),
                                     rng.uniform(50.0, 500.0), deadline});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::opt::maximize_quality(0.0, jobs, 1500.0, paper_f()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// A GE trim hands Quality-OPT 1.3-1.75 jobs on average (perfbench traffic),
// so the one- and two-job rows are the ones the simulator pays for.
BENCHMARK(BM_QualityOptAllocator)->Arg(1)->Arg(2)->Range(4, 256);

// n jobs released over n/150 s, each with a 0.1-0.4 s window.  `agreeable`
// pairs the sorted releases with the sorted deadlines instead: the same
// release and deadline sets, but a later release never has an earlier
// deadline (and every window stays non-empty).
std::vector<ge::opt::YdsJob> random_yds_jobs(std::size_t n, bool agreeable) {
  ge::util::Rng rng(7);
  std::vector<ge::opt::YdsJob> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double release = rng.uniform(0.0, static_cast<double>(n) / 150.0);
    jobs.push_back(ge::opt::YdsJob{release, release + rng.uniform(0.1, 0.4),
                                   rng.uniform(50.0, 500.0)});
  }
  if (agreeable) {
    std::vector<double> deadlines;
    for (const ge::opt::YdsJob& job : jobs) {
      deadlines.push_back(job.deadline);
    }
    std::sort(deadlines.begin(), deadlines.end());
    std::sort(jobs.begin(), jobs.end(),
              [](const auto& a, const auto& b) { return a.release < b.release; });
    for (std::size_t i = 0; i < n; ++i) {
      jobs[i].deadline = deadlines[i];
    }
  }
  return jobs;
}

void BM_FullYdsSchedule(benchmark::State& state) {
  const std::vector<ge::opt::YdsJob> jobs =
      random_yds_jobs(static_cast<std::size_t>(state.range(0)), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::opt::yds_schedule(jobs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullYdsSchedule)->Range(16, 512);

// The linear taut-string profile on the agreeable variant of the same jobs
// (what the reclaim advisor runs per core and for the pooled floor), on one
// scratch reused across calls as its callers do.
void BM_AgreeableProfile(benchmark::State& state) {
  const std::vector<ge::opt::YdsJob> jobs =
      random_yds_jobs(static_cast<std::size_t>(state.range(0)), true);
  ge::opt::ProfileScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::opt::agreeable_profile(jobs, scratch));
    benchmark::DoNotOptimize(scratch.profile.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AgreeableProfile)->Arg(16)->Arg(64)->Arg(512)->Arg(4096);

void BM_PlanRectifier(benchmark::State& state) {
  std::vector<ge::workload::Job> jobs;
  const auto plan_jobs =
      random_plan_jobs(jobs, static_cast<std::size_t>(state.range(0)), 31);
  const ge::opt::ExecutionPlan plan = ge::opt::plan_min_energy(0.0, plan_jobs, 1e9);
  const ge::power::DiscreteSpeedTable table =
      ge::power::DiscreteSpeedTable::uniform_ghz(0.2, 3.2, 1000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::sched::rectify_plan(plan, table, 3200.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlanRectifier)->Range(4, 256);

// --- Response-time quantiles ----------------------------------------------

// A run's accounting: add one response sample per job (lognormal-ish, so
// the tail is long), then read p50/p95/p99 by selection over the blocks.
void BM_QuantileCollector(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ge::util::Rng rng(8);
  std::vector<double> samples(n);
  for (double& x : samples) {
    x = 100.0 * std::exp(rng.uniform(-2.0, 2.0));
  }
  for (auto _ : state) {
    ge::util::QuantileCollector q;
    for (double x : samples) {
      q.add(x);
    }
    benchmark::DoNotOptimize(q.quantile(0.50));
    benchmark::DoNotOptimize(q.quantile(0.95));
    benchmark::DoNotOptimize(q.quantile(0.99));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantileCollector)->Arg(10000)->Arg(1000000)->Unit(benchmark::kMillisecond);

// --- Event queue ------------------------------------------------------------

void BM_EventQueuePushPop(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ge::util::Rng rng(6);
  std::vector<double> times(n);
  for (double& t : times) {
    t = rng.uniform(0.0, 1000.0);
  }
  for (auto _ : state) {
    ge::sim::HeapEventQueue queue;
    for (double t : times) {
      queue.push(t, [] {});
    }
    while (!queue.empty()) {
      benchmark::DoNotOptimize(queue.pop());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueuePushPop)->Range(64, 16384);

void BM_EventQueueChurn(benchmark::State& state) {
  // The simulator's steady-state pattern: a rolling window of pending
  // events where every pop schedules a replacement and a third of the
  // events are cancelled before they fire (quantum re-arms, settled
  // deadlines).
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  const std::size_t ops = 4 * window;
  for (auto _ : state) {
    ge::util::Rng rng(8);
    ge::sim::HeapEventQueue queue;
    std::vector<ge::sim::EventId> pending;
    pending.reserve(window);
    double now = 0.0;
    for (std::size_t i = 0; i < window; ++i) {
      pending.push_back(queue.push(rng.uniform(0.0, 1.0), [] {}));
    }
    for (std::size_t i = 0; i < ops; ++i) {
      if (i % 3 == 0 && !pending.empty()) {
        const std::size_t victim = rng.uniform_index(pending.size());
        queue.cancel(pending[victim]);
        pending[victim] = pending.back();
        pending.pop_back();
      }
      if (!queue.empty()) {
        const ge::sim::Event ev = queue.pop();
        now = ev.time;
      }
      pending.push_back(queue.push(now + rng.uniform(0.0, 1.0), [] {}));
    }
    benchmark::DoNotOptimize(queue.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_EventQueueChurn)->Range(64, 4096);

// The GE round's pattern: `window` pending events (one per core boundary)
// behind a background of arrivals and deadlines, each op moving one
// boundary to a new time.  The CancelChurn row does it as cancel + push,
// the Reschedule row in place; both pop the same events.
template <bool kInPlace>
void BM_EventQueueMoveBoundary(benchmark::State& state) {
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  const std::size_t ops = 16 * window;
  for (auto _ : state) {
    ge::util::Rng rng(9);
    ge::sim::HeapEventQueue queue;
    for (std::size_t i = 0; i < 8 * window; ++i) {
      queue.push(rng.uniform(0.0, 100.0), [] {});
    }
    std::vector<ge::sim::EventId> boundary(window);
    for (ge::sim::EventId& id : boundary) {
      id = queue.push(rng.uniform(0.0, 1.0), [] {});
    }
    for (std::size_t i = 0; i < ops; ++i) {
      ge::sim::EventId& id = boundary[i % window];
      const double t = rng.uniform(0.0, 1.0);
      if constexpr (kInPlace) {
        id = queue.reschedule(id, t);
      } else {
        queue.cancel(id);
        id = queue.push(t, [] {});
      }
    }
    benchmark::DoNotOptimize(queue.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(ops));
}
BENCHMARK_TEMPLATE(BM_EventQueueMoveBoundary, false)
    ->Name("BM_EventQueueCancelChurn")
    ->Range(16, 1024);
BENCHMARK_TEMPLATE(BM_EventQueueMoveBoundary, true)
    ->Name("BM_EventQueueReschedule")
    ->Range(16, 1024);

// --- Load estimator ---------------------------------------------------------

void BM_LoadEstimatorRate(benchmark::State& state) {
  ge::util::Rng rng(9);
  for (auto _ : state) {
    ge::sched::LoadEstimator load(2.0);
    double t = 0.0;
    double acc = 0.0;
    for (int i = 0; i < 4096; ++i) {
      t += rng.exponential(150.0);
      load.record_arrival(t);
      if (i % 16 == 0) {
        acc += load.rate(t);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_LoadEstimatorRate);

// --- A full GE scheduling round ---------------------------------------------

// Drives real GoodEnoughScheduler rounds through a hand-built server: the
// measured loop covers EDF ordering, LF cutting, the hybrid power split,
// Quality-OPT trims and Energy-OPT planning exactly as a simulation does.
// items/s is scheduling rounds per second.
void BM_GESchedulingRound(benchmark::State& state) {
  const std::size_t cores = static_cast<std::size_t>(state.range(0));
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    ge::sim::Simulator sim;
    ge::power::PowerModel pm(5.0, 2.0, 1000.0);
    ge::server::MulticoreServer server(cores, 20.0 * static_cast<double>(cores),
                                       pm, sim);
    ge::quality::ExponentialQuality f(0.003, 1000.0);
    ge::quality::QualityMonitor monitor(f);
    ge::sched::GoodEnoughOptions options;
    options.quantum = 0.05;
    ge::sched::SchedulerEnv env{&sim, &server, &f, &monitor};
    ge::sched::GoodEnoughScheduler scheduler(env, options);
    for (std::size_t i = 0; i < cores; ++i) {
      server.core(i).set_job_finished_callback(
          [&scheduler](ge::workload::Job* j) { scheduler.on_job_finished(j); });
      server.core(i).set_idle_callback(
          [&scheduler](int id) { scheduler.on_core_idle(id); });
    }
    scheduler.start();

    ge::util::Rng rng(10);
    std::vector<std::unique_ptr<ge::workload::Job>> jobs;
    double t = 0.0;
    const double rate = 15.0 * static_cast<double>(cores);
    while (t < 2.0) {
      t += rng.exponential(rate);
      auto job = std::make_unique<ge::workload::Job>();
      job->id = jobs.size() + 1;
      job->arrival = t;
      job->deadline = t + 0.15;
      job->demand = job->target = rng.uniform(130.0, 1000.0);
      ge::workload::Job* ptr = job.get();
      jobs.push_back(std::move(job));
      sim.schedule_at(t, [&scheduler, ptr] { scheduler.on_job_arrival(ptr); });
      sim.schedule_at(ptr->deadline,
                      [&scheduler, ptr] { scheduler.on_deadline(ptr); });
    }
    sim.run_until(2.2);
    scheduler.finish();
    rounds += scheduler.stats(0.0).rounds;
    benchmark::DoNotOptimize(monitor.quality());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_GESchedulingRound)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

// --- The report pipeline ----------------------------------------------------

// One task shaped like the repository benchmark's report_traced workload:
// 2 servers behind jsq at 150 req/s each, discrete DVFS, 2 tenants, GE, a
// 12 s horizon, captured once per process with its JSONL rendering.
struct CapturedTask {
  ge::obs::RunTelemetry telemetry;
  ge::obs::analysis::TaskInput input;
  std::string jsonl;
};

const CapturedTask& captured_task() {
  static const CapturedTask* task = [] {
    ge::exp::ExperimentConfig cfg = ge::exp::ExperimentConfig::paper_defaults();
    cfg.num_servers = 2;
    cfg.dispatch = ge::cluster::DispatchPolicy::kJsq;
    cfg.arrival_rate = 300.0;
    cfg.discrete_speeds = true;
    cfg.num_tenants = 2;
    cfg.tenant_qge = {0.95, 0.85};
    cfg.duration = 12.0;
    cfg.seed = 12;
    const ge::exp::SchedulerSpec spec = ge::exp::SchedulerSpec::parse("GE");
    const ge::workload::Trace trace =
        ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration, cfg.max_jobs);
    auto* out = new CapturedTask;
    out->telemetry.want_trace = true;
    (void)ge::exp::run_simulation(cfg, spec, trace, nullptr, &out->telemetry);

    ge::obs::analysis::TaskInput& input = out->input;
    input.info.scheduler = spec.display_name();
    input.info.arrival_rate = cfg.arrival_rate;
    input.info.cores = cfg.cores;
    input.info.power_budget = ge::exp::effective_budget(spec, cfg);
    input.info.power_model_json = cfg.power_model().describe_json();
    input.info.ladder_units =
        ge::power::DiscreteSpeedTable::uniform_ghz(cfg.discrete_step_ghz,
                                                   cfg.discrete_max_ghz,
                                                   cfg.power_model().units_per_ghz())
            .levels();
    input.buffer = &out->telemetry.trace;
    for (const ge::cluster::NodeSpec& node :
         cfg.cluster_node_specs(input.info.power_budget)) {
      input.models.push_back(node.core_models);
    }
    ge::obs::append_trace_jsonl(out->jsonl, input.info, out->telemetry.trace);
    return out;
  }();
  return *task;
}

// The reclaim advisor over the captured task: per-core YDS placement plus
// the pooled fleet-wide floor.  items/s is released jobs per second.
void BM_ReclaimAdvisor(benchmark::State& state) {
  const CapturedTask& task = captured_task();
  const ge::obs::analysis::TaskAnalysis analysis =
      ge::obs::analysis::analyze_task(task.input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::obs::analysis::analyze_reclaim(task.input, analysis));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(analysis.released));
}
BENCHMARK(BM_ReclaimAdvisor)->Unit(benchmark::kMillisecond);

// JSONL rendering of the captured trace into a reused string; items/s is
// trace events per second.
void BM_TraceWriterJsonl(benchmark::State& state) {
  const CapturedTask& task = captured_task();
  std::string text;
  for (auto _ : state) {
    text.clear();
    ge::obs::append_trace_jsonl(text, task.input.info, task.telemetry.trace);
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(task.telemetry.trace.size()));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_TraceWriterJsonl)->Unit(benchmark::kMillisecond);

// Parsing the captured JSONL back into trace buffers; items/s is trace
// events per second.
void BM_ReadTraceJsonl(benchmark::State& state) {
  const CapturedTask& task = captured_task();
  for (auto _ : state) {
    std::istringstream in(task.jsonl);
    benchmark::DoNotOptimize(ge::obs::analysis::read_trace_jsonl(in));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(task.telemetry.trace.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(task.jsonl.size()));
}
BENCHMARK(BM_ReadTraceJsonl)->Unit(benchmark::kMillisecond);

// Loading a report directory of the captured task back into trace buffers
// (trace.bin, decoded in bounded chunks): the --report path's replacement
// for the JSONL re-parse above.  items/s is trace events per second.
void BM_LoadReportDir(benchmark::State& state) {
  const CapturedTask& task = captured_task();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ge_bench_report_" + std::to_string(::getpid()));
  ge::obs::analysis::ReportWriter writer;
  writer.add_task(task.input);
  writer.write_directory(dir.string());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::obs::analysis::load_report_dir(dir.string()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(task.telemetry.trace.size()));
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(std::filesystem::file_size(dir / "trace.bin")));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_LoadReportDir)->Unit(benchmark::kMillisecond);

}  // namespace
