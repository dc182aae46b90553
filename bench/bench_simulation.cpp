// End-to-end simulator throughput (google-benchmark): how many simulated
// seconds / scheduled jobs per wall-clock second the stack sustains for the
// main schedulers.
//
// Emitting the machine-readable trajectory (see docs/BENCHMARKS.md; one
// command line, wrapped here):
//
//   bench_simulation --benchmark_repetitions=5
//     --benchmark_report_aggregates_only=true
//     --benchmark_format=json --benchmark_out=BENCH_simulation.json
#include <benchmark/benchmark.h>

#include "exp/config.h"
#include "exp/experiment_engine.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/telemetry.h"

namespace {

// Stamp the *project's* build type into the JSON context.  The
// `library_build_type` field describes how the installed google-benchmark
// library was compiled, not this binary, so tools/bench_compare.py gates on
// this key instead (debug-built numbers must never become baselines).
const bool ge_build_type_registered = [] {
#ifdef NDEBUG
  benchmark::AddCustomContext("ge_build_type", "release");
#else
  benchmark::AddCustomContext("ge_build_type", "debug");
#endif
  return true;
}();

ge::exp::ExperimentConfig bench_config(double rate) {
  ge::exp::ExperimentConfig cfg = ge::exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = rate;
  cfg.duration = 5.0;
  cfg.seed = 99;
  return cfg;
}

void run_scheduler(benchmark::State& state, const char* name, double rate) {
  const ge::exp::ExperimentConfig cfg = bench_config(rate);
  const ge::workload::Trace trace =
      ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const ge::exp::RunResult r =
        ge::exp::run_simulation(cfg, ge::exp::SchedulerSpec::parse(name), trace);
    jobs += r.released;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["sim_seconds_per_iter"] = cfg.duration;
}

void BM_SimulateGE_Light(benchmark::State& state) { run_scheduler(state, "GE", 100.0); }
void BM_SimulateGE_Heavy(benchmark::State& state) { run_scheduler(state, "GE", 220.0); }
void BM_SimulateBE_Heavy(benchmark::State& state) { run_scheduler(state, "BE", 220.0); }
void BM_SimulateFCFS_Heavy(benchmark::State& state) {
  run_scheduler(state, "FCFS", 220.0);
}
// Speed-scaling zoo at heavy load: OA re-solves the YDS staircase on every
// arrival, AVR only maintains density suffix sums, BKP adds the estimator
// re-sampled on the refresh grid -- the spread is the planner cost.
void BM_SimulateOA_Heavy(benchmark::State& state) {
  run_scheduler(state, "OA", 220.0);
}
void BM_SimulateAVR_Heavy(benchmark::State& state) {
  run_scheduler(state, "AVR", 220.0);
}
void BM_SimulateBKP_Heavy(benchmark::State& state) {
  run_scheduler(state, "BKP", 220.0);
}
void BM_SimulateGE_Discrete(benchmark::State& state) {
  ge::exp::ExperimentConfig cfg = bench_config(180.0);
  cfg.discrete_speeds = true;
  const ge::workload::Trace trace =
      ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ge::exp::run_simulation(cfg, ge::exp::SchedulerSpec::parse("GE"), trace));
  }
}

// Telemetry hooks armed (metrics + trace buffer): the overhead the
// observability layer adds to a heavy GE run.
void BM_SimulateGE_Telemetry(benchmark::State& state) {
  const ge::exp::ExperimentConfig cfg = bench_config(220.0);
  const ge::workload::Trace trace =
      ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  for (auto _ : state) {
    ge::obs::RunTelemetry telemetry;
    benchmark::DoNotOptimize(ge::exp::run_simulation(
        cfg, ge::exp::SchedulerSpec::parse("GE"), trace, nullptr, &telemetry));
  }
  state.counters["sim_seconds_per_iter"] = cfg.duration;
}

// Cluster run: 4 servers behind JSQ dispatch at the same per-server load as
// the heavy single-server case -- the dispatch tier plus the 4x event
// volume is the cost over BM_SimulateGE_Heavy.
void BM_SimulateGE_Cluster4(benchmark::State& state) {
  ge::exp::ExperimentConfig cfg = bench_config(4.0 * 220.0);
  cfg.num_servers = 4;
  cfg.dispatch = ge::cluster::DispatchPolicy::kJsq;
  const ge::workload::Trace trace =
      ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const ge::exp::RunResult r =
        ge::exp::run_simulation(cfg, ge::exp::SchedulerSpec::parse("GE"), trace);
    jobs += r.released;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["sim_seconds_per_iter"] = cfg.duration;
}

// 8-server heavy-load fleet behind round-robin dispatch, serial event loop
// vs the 4-shard parallel loop (--shards; docs/DESIGN.md, "Sharded parallel
// DES").  Results are bit-identical; the row pair measures what the shard
// machinery costs (single-core hosts) or saves (multicore hosts).
void run_cluster8(benchmark::State& state, std::size_t shards) {
  ge::exp::ExperimentConfig cfg = bench_config(8.0 * 220.0);
  cfg.num_servers = 8;
  cfg.dispatch = ge::cluster::DispatchPolicy::kRoundRobin;
  cfg.shards = shards;
  const ge::workload::Trace trace =
      ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const ge::exp::RunResult r =
        ge::exp::run_simulation(cfg, ge::exp::SchedulerSpec::parse("GE"), trace);
    jobs += r.released;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["sim_seconds_per_iter"] = cfg.duration;
}
void BM_SimulateGE_Cluster8_Shards1(benchmark::State& state) {
  run_cluster8(state, 1);
}
void BM_SimulateGE_Cluster8_Shards4(benchmark::State& state) {
  run_cluster8(state, 4);
}

// The lifecycle regime: the same 8-server round-robin fleet at 140 req/s
// per server with churn, wake costs, three tenants and admission (the
// perfbench `fleet_sharded` shape at a 5 s horizon).  Dispatch, admission
// and the churn windows are all planned at setup, so only the lifecycle
// transitions are cross-shard barriers (bench/abl_shard_scaling keeps a
// barrier-dense jsq panel).
void run_cluster8_churn(benchmark::State& state, std::size_t shards) {
  ge::exp::ExperimentConfig cfg = bench_config(8.0 * 140.0);
  cfg.num_servers = 8;
  cfg.dispatch = ge::cluster::DispatchPolicy::kRoundRobin;
  cfg.churn = 0.1;
  cfg.churn_dwell = 0.5;
  cfg.wake_latency = 0.02;
  cfg.setup_energy = 50.0;
  cfg.num_tenants = 3;
  cfg.tenant_qge = {0.95, 0.9, 0.8};
  cfg.admission = 1.5;
  cfg.shards = shards;
  const ge::workload::Trace trace =
      ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const ge::exp::RunResult r =
        ge::exp::run_simulation(cfg, ge::exp::SchedulerSpec::parse("GE"), trace);
    jobs += r.released;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["sim_seconds_per_iter"] = cfg.duration;
}
void BM_SimulateGE_Cluster8Churn_Shards1(benchmark::State& state) {
  run_cluster8_churn(state, 1);
}
void BM_SimulateGE_Cluster8Churn_Shards2(benchmark::State& state) {
  run_cluster8_churn(state, 2);
}

// Streaming replay of the heavy GE case: generation, release, retirement
// and accounting all happen inside the run (no materialised trace), which
// is the 10^6+-job path.  Compare against BM_SimulateGE_Heavy for the cost
// (or saving) of the arena pipeline; results are bit-identical.
void BM_SimulateGE_Stream(benchmark::State& state) {
  ge::exp::ExperimentConfig cfg = bench_config(220.0);
  cfg.stream = true;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const ge::exp::RunResult r =
        ge::exp::run_simulation(cfg, ge::exp::SchedulerSpec::parse("GE"));
    jobs += r.released;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["sim_seconds_per_iter"] = cfg.duration;
}

// Fig. 3-style comparison: GE/BE/FCFS across three load points through the
// experiment engine, the shape every figure binary runs.
void BM_SimulateFig03Sweep(benchmark::State& state) {
  const double rates[] = {100.0, 180.0, 220.0};
  const char* schedulers[] = {"GE", "BE", "FCFS"};
  ge::exp::ExperimentPlan plan;
  std::size_t point = 0;
  for (double rate : rates) {
    ge::exp::ExperimentConfig cfg = bench_config(rate);
    cfg.duration = 2.0;
    for (const char* name : schedulers) {
      plan.add(cfg, ge::exp::SchedulerSpec::parse(name), point);
    }
    ++point;
  }
  const ge::exp::ExperimentEngine engine(ge::exp::ExecutionOptions{1, false, {}});
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const std::vector<ge::exp::RunResult> results = engine.run(plan);
    for (const ge::exp::RunResult& r : results) {
      jobs += r.released;
    }
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
}

BENCHMARK(BM_SimulateGE_Light)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateGE_Heavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateBE_Heavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateFCFS_Heavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateOA_Heavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateAVR_Heavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateBKP_Heavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateGE_Discrete)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateGE_Telemetry)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateGE_Cluster4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateGE_Cluster8_Shards1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateGE_Cluster8_Shards4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateGE_Cluster8Churn_Shards1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateGE_Cluster8Churn_Shards2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateGE_Stream)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateFig03Sweep)->Unit(benchmark::kMillisecond);

}  // namespace
