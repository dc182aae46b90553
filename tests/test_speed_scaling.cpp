// Tests for the online speed-scaling zoo (core/speed_scaling.h): the
// YDS-on-suffix staircase helper, the OA == YDS differential on an offline
// instance, and deadline-feasibility property checks for OA/qOA/AVR/BKP
// under fuzzed workloads across the materialised and streaming paths.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/speed_scaling.h"
#include "exp/config.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "opt/yds.h"
#include "workload/trace.h"

namespace ge::exp {
namespace {

TEST(OaSuffixSchedule, SingleJobRunsAtItsDensity) {
  const auto blocks =
      sched::oa_suffix_schedule(1.0, {sched::SuffixJob{3.0, 100.0}});
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_DOUBLE_EQ(blocks[0].end, 3.0);
  EXPECT_DOUBLE_EQ(blocks[0].speed, 50.0);
}

TEST(OaSuffixSchedule, CriticalPrefixDominates) {
  // The tight early job forms its own block; the slack job follows slower.
  auto blocks = sched::oa_suffix_schedule(
      0.0, {sched::SuffixJob{1.0, 10.0}, sched::SuffixJob{2.0, 2.0}});
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_DOUBLE_EQ(blocks[0].end, 1.0);
  EXPECT_DOUBLE_EQ(blocks[0].speed, 10.0);
  EXPECT_DOUBLE_EQ(blocks[1].end, 2.0);
  EXPECT_DOUBLE_EQ(blocks[1].speed, 2.0);

  // When the heavy job comes later, the whole prefix is one critical block.
  blocks = sched::oa_suffix_schedule(
      0.0, {sched::SuffixJob{1.0, 4.0}, sched::SuffixJob{2.0, 10.0}});
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_DOUBLE_EQ(blocks[0].end, 2.0);
  EXPECT_DOUBLE_EQ(blocks[0].speed, 7.0);
}

TEST(OaSuffixSchedule, CapacityEqualsTotalWorkAndSpeedsDecrease) {
  std::vector<sched::SuffixJob> jobs = {
      {0.5, 30.0}, {1.25, 80.0}, {2.0, 10.0}, {2.0, 5.0}, {3.5, 120.0}};
  double total = 0.0;
  for (const auto& j : jobs) total += j.remaining;
  const auto blocks = sched::oa_suffix_schedule(0.0, jobs);
  ASSERT_FALSE(blocks.empty());
  double capacity = 0.0;
  double start = 0.0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    capacity += blocks[i].speed * (blocks[i].end - start);
    start = blocks[i].end;
    if (i > 0) {
      EXPECT_LE(blocks[i].speed, blocks[i - 1].speed + 1e-12);
    }
  }
  EXPECT_NEAR(capacity, total, 1e-9 * total);
}

workload::Job make_job(std::uint64_t id, double arrival, double deadline,
                       double demand) {
  workload::Job job;
  job.id = id;
  job.arrival = arrival;
  job.deadline = deadline;
  job.demand = demand;
  return job;
}

TEST(SpeedScalingDifferential, OaEqualsYdsOnSingleReleaseInstance) {
  // With every job released at t = 0 on one core under a generous budget,
  // OA's first (and only nontrivial) re-solve is YDS on the whole instance,
  // so the simulated dynamic energy must match yds_min_energy.
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.cores = 1;
  cfg.power_budget = 1e5;
  cfg.duration = 4.0;
  const std::vector<workload::Job> jobs = {
      make_job(0, 0.0, 1.0, 800.0),
      make_job(1, 0.0, 2.0, 2500.0),
      make_job(2, 0.0, 4.0, 400.0),
  };
  const workload::Trace trace(jobs);
  const RunResult r = run_simulation(cfg, SchedulerSpec::parse("OA"), trace);
  EXPECT_EQ(r.released, 3u);
  EXPECT_EQ(r.completed, 3u);

  const std::vector<opt::YdsJob> yds_jobs = {
      {0.0, 1.0, 800.0}, {0.0, 2.0, 2500.0}, {0.0, 4.0, 400.0}};
  const double optimal = opt::yds_min_energy(yds_jobs, cfg.power_model());
  EXPECT_NEAR(r.energy, optimal, 1e-6 * optimal);
}

ExperimentConfig fuzz_config(std::mt19937_64& rng) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.cores = 4;
  // Generous budget: the Equal-Sharing cap never binds, so every deadline
  // is met iff the planner is actually feasible.
  cfg.power_budget = 1e6;
  cfg.duration = 2.0;
  std::uniform_real_distribution<double> rate(40.0, 240.0);
  std::uniform_real_distribution<double> window(0.05, 0.25);
  cfg.arrival_rate = rate(rng);
  cfg.deadline_interval = window(rng);
  cfg.deadline_interval_max = cfg.deadline_interval + window(rng);
  cfg.seed = rng();
  return cfg;
}

TEST(SpeedScalingFeasibility, NeverMissesDeadlineAcrossPaths) {
  // OA/qOA/AVR/BKP must complete every released job when the power cap is
  // slack -- including qOA with q < 1, where the finish-by-deadline repair
  // carries feasibility.  Stream on/off must agree bit-identically.
  const char* kScheds[] = {"OA", "QOA[1.5]", "QOA[0.75]", "AVR", "BKP"};
  std::mt19937_64 rng(20260809ULL);
  for (int iter = 0; iter < 5; ++iter) {
    const ExperimentConfig cfg = fuzz_config(rng);
    for (const char* name : kScheds) {
      SCOPED_TRACE(std::string(name) + " iter " + std::to_string(iter) +
                   " seed " + std::to_string(cfg.seed));
      const SchedulerSpec spec = SchedulerSpec::parse(name);
      const RunResult base = run_simulation(cfg, spec);
      EXPECT_EQ(base.completed, base.released);
      EXPECT_EQ(base.partial, 0u);
      EXPECT_EQ(base.dropped, 0u);

      ExperimentConfig streamed = cfg;
      streamed.stream = true;
      const RunResult s = run_simulation_stream(streamed, spec);
      EXPECT_EQ(to_json(s), to_json(base));
    }
  }
}

TEST(SpeedScalingFeasibility, ClusterPathStaysFeasible) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.cores = 4;
  cfg.power_budget = 1e6;
  cfg.duration = 2.0;
  cfg.arrival_rate = 150.0;
  cfg.num_servers = 3;
  cfg.dispatch = cluster::DispatchPolicy::kJsq;
  cfg.seed = 5;
  for (const char* name : {"OA", "AVR", "BKP"}) {
    SCOPED_TRACE(name);
    const RunResult r = run_simulation(cfg, SchedulerSpec::parse(name));
    EXPECT_EQ(r.completed, r.released);
    EXPECT_EQ(r.num_servers, 3u);
  }
}

TEST(SpeedScaling, TightBudgetYieldsPartialsNotCrashes) {
  // When the Equal-Sharing cap binds, cap-clipped jobs run to their
  // deadline and settle partial (queue_policy semantics); accounting must
  // stay consistent and the power-budget watchdog quiet.
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.cores = 4;
  cfg.power_budget = 8.0;
  cfg.duration = 2.0;
  cfg.arrival_rate = 200.0;
  cfg.verify_power = true;
  cfg.seed = 9;
  for (const char* name : {"OA", "QOA[0.5]", "AVR", "BKP"}) {
    SCOPED_TRACE(name);
    const RunResult r = run_simulation(cfg, SchedulerSpec::parse(name));
    EXPECT_EQ(r.completed + r.partial + r.dropped, r.released);
    EXPECT_GT(r.partial, 0u);
  }
}

TEST(SpeedScaling, QDistinguishesQoaFromOa) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.cores = 4;
  cfg.power_budget = 1e6;
  cfg.duration = 2.0;
  cfg.arrival_rate = 120.0;
  cfg.seed = 13;
  const RunResult oa = run_simulation(cfg, SchedulerSpec::parse("OA"));
  const RunResult slow = run_simulation(cfg, SchedulerSpec::parse("QOA[0.75]"));
  const RunResult fast = run_simulation(cfg, SchedulerSpec::parse("QOA[1.5]"));
  EXPECT_NE(oa.energy, slow.energy);
  EXPECT_NE(oa.energy, fast.energy);
  // Racing ahead of OA burns strictly more energy on a convex power curve.
  EXPECT_GT(fast.energy, oa.energy);
}

TEST(SpeedScaling, DiscreteSpeedsStayWithinAccounting) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.cores = 4;
  cfg.power_budget = 1e4;
  cfg.duration = 2.0;
  cfg.arrival_rate = 120.0;
  cfg.discrete_speeds = true;
  cfg.seed = 17;
  for (const char* name : {"OA", "AVR", "BKP"}) {
    SCOPED_TRACE(name);
    const RunResult r = run_simulation(cfg, SchedulerSpec::parse(name));
    EXPECT_EQ(r.completed + r.partial + r.dropped, r.released);
    EXPECT_GT(r.completed, 0u);
  }
}

}  // namespace
}  // namespace ge::exp
