// Tests for the ExperimentEngine: the determinism contract (bit-identical
// results for any worker count, compared as to_json records, which print
// every field in round-trip form), trace sharing across a plan point, the
// plan-builder sweeps and replicate().  The replicate() statistics of the
// pre-engine serial implementation are pinned in tests/goldens.txt.
#include <gtest/gtest.h>

#include <vector>

#include "exp/config.h"
#include "exp/experiment_engine.h"
#include "exp/replicate.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "exp/sweep.h"

namespace ge::exp {
namespace {

ExperimentConfig small_config(double rate = 120.0, double seconds = 2.0) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.arrival_rate = rate;
  cfg.duration = seconds;
  cfg.seed = 42;
  return cfg;
}


ExperimentPlan mixed_plan() {
  // Two points x three schedulers, plus an isolated run with its own seed:
  // exercises trace sharing, config variation and point isolation at once.
  ExperimentPlan plan;
  for (std::size_t p = 0; p < 2; ++p) {
    const double rate = p == 0 ? 110.0 : 170.0;
    for (const char* name : {"GE", "BE", "FCFS"}) {
      plan.add(small_config(rate), SchedulerSpec::parse(name), p);
    }
  }
  ExperimentConfig lone = small_config(140.0);
  lone.seed = 7;
  plan.add_isolated(lone, SchedulerSpec::parse("GE"));
  return plan;
}

TEST(ExperimentEngine, OneWorkerAndFourWorkersAreBitIdentical) {
  const ExperimentPlan plan = mixed_plan();
  ExecutionOptions serial;
  serial.jobs = 1;
  ExecutionOptions parallel;
  parallel.jobs = 4;
  const std::vector<RunResult> a = run_plan(plan, serial);
  const std::vector<RunResult> b = run_plan(plan, parallel);
  ASSERT_EQ(a.size(), plan.size());
  ASSERT_EQ(b.size(), plan.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(to_json(a[i]), to_json(b[i]));
  }
}

TEST(ExperimentEngine, RepeatedParallelRunsAreBitIdentical) {
  const ExperimentPlan plan = mixed_plan();
  ExecutionOptions parallel;
  parallel.jobs = 3;
  const std::vector<RunResult> a = run_plan(plan, parallel);
  const std::vector<RunResult> b = run_plan(plan, parallel);
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(to_json(a[i]), to_json(b[i]));
  }
}

TEST(ExperimentEngine, EmptyPlanYieldsEmptyResults) {
  EXPECT_TRUE(run_plan(ExperimentPlan{}).empty());
}

TEST(ExperimentEngine, TasksAtAPointShareOneTrace) {
  ExperimentPlan plan;
  plan.add(small_config(), SchedulerSpec::parse("GE"), 0);
  plan.add(small_config(), SchedulerSpec::parse("BE"), 0);
  const std::vector<RunResult> results = run_plan(plan);
  // Same trace => same released-job count for every scheduler at the point.
  EXPECT_EQ(results[0].released, results[1].released);
}

TEST(ExperimentEngine, EffectiveJobsClampsToPlanAndFloorsAtOne) {
  ExecutionOptions opts;
  opts.jobs = 8;
  const ExperimentEngine engine(opts);
  EXPECT_EQ(engine.effective_jobs(3), 3u);
  EXPECT_EQ(engine.effective_jobs(100), 8u);
  ExecutionOptions auto_opts;  // jobs = 0 -> hardware_concurrency
  EXPECT_GE(ExperimentEngine(auto_opts).effective_jobs(100), 1u);
}

TEST(ExperimentEngineDeathTest, MismatchedWorkloadAtSharedPointDies) {
  ExperimentPlan plan;
  plan.add(small_config(110.0), SchedulerSpec::parse("GE"), 0);
  plan.add(small_config(170.0), SchedulerSpec::parse("BE"), 0);
  EXPECT_DEATH((void)run_plan(plan), "share the workload");
}

TEST(Sweep, ParallelSweepMatchesSerialSweep) {
  const std::vector<SchedulerSpec> specs{SchedulerSpec::parse("GE"),
                                         SchedulerSpec::parse("BE")};
  ExecutionOptions serial;
  serial.jobs = 1;
  ExecutionOptions parallel;
  parallel.jobs = 4;
  const auto a = sweep_arrival_rates(small_config(), specs, {100.0, 150.0}, serial);
  const auto b = sweep_arrival_rates(small_config(), specs, {100.0, 150.0}, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].results.size(), b[p].results.size());
    for (std::size_t s = 0; s < a[p].results.size(); ++s) {
      SCOPED_TRACE(testing::Message() << "point " << p << " spec " << s);
      EXPECT_EQ(to_json(a[p].results[s]), to_json(b[p].results[s]));
    }
  }
}

TEST(Sweep, VariantSweepLabelsSeriesAndSharesTraces) {
  std::vector<RunVariant> variants;
  variants.push_back({"budget-lo", SchedulerSpec::parse("GE"),
                      [](ExperimentConfig cfg) {
                        cfg.power_budget = 160.0;
                        return cfg;
                      }});
  variants.push_back({"budget-hi", SchedulerSpec::parse("GE"), nullptr});
  const auto points = sweep_variants(small_config(), variants, {120.0},
                                     configure_arrival_rate);
  ASSERT_EQ(points.size(), 1u);
  ASSERT_EQ(points[0].results.size(), 2u);
  EXPECT_EQ(points[0].results[0].scheduler, "budget-lo");
  EXPECT_EQ(points[0].results[1].scheduler, "budget-hi");
  // Shared trace: both variants saw the same jobs.
  EXPECT_EQ(points[0].results[0].released, points[0].results[1].released);

  const util::Table table = series_table(
      points, "rate", [](const RunResult& r) { return r.quality; });
  EXPECT_EQ(table.columns(), 3u);
}

TEST(Sweep, EmptySeriesTableKeepsXColumnHeader) {
  const util::Table table = series_table(
      {}, "arrival_rate", [](const RunResult& r) { return r.quality; });
  EXPECT_EQ(table.columns(), 1u);
  EXPECT_EQ(table.rows(), 0u);
}

TEST(Replicate, ParallelReplicationMatchesSerial) {
  const ExperimentConfig cfg = small_config(130.0);
  ExecutionOptions serial;
  serial.jobs = 1;
  ExecutionOptions parallel;
  parallel.jobs = 4;
  const ReplicationSummary a = replicate(cfg, SchedulerSpec::parse("GE"), 4, serial);
  const ReplicationSummary b =
      replicate(cfg, SchedulerSpec::parse("GE"), 4, parallel);
  EXPECT_EQ(a.quality.mean(), b.quality.mean());
  EXPECT_EQ(a.quality.stddev(), b.quality.stddev());
  EXPECT_EQ(a.energy.mean(), b.energy.mean());
  EXPECT_EQ(a.energy.stddev(), b.energy.stddev());
  EXPECT_EQ(a.p99_response_ms.mean(), b.p99_response_ms.mean());
}

}  // namespace
}  // namespace ge::exp
