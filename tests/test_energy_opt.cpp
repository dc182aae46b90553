// Tests for the Energy-OPT (YDS) per-core speed planner.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "opt_totals.h"
#include "opt/energy_opt.h"
#include "power/power_model.h"
#include "util/rng.h"
#include "workload/job.h"

namespace ge::opt {
namespace {

constexpr double kInf = 1e18;

struct Fixture {
  std::vector<workload::Job> jobs;
  std::vector<PlanJob> plan_jobs;

  void add(double remaining, double deadline) {
    workload::Job job;
    job.id = jobs.size() + 1;
    job.arrival = 0.0;
    job.deadline = deadline;
    job.demand = remaining;
    job.target = remaining;
    jobs.push_back(job);
  }
  std::span<const PlanJob> span() {
    plan_jobs.clear();
    for (workload::Job& job : jobs) {
      plan_jobs.push_back(PlanJob{&job, job.target, job.deadline});
    }
    return plan_jobs;
  }
};

TEST(RequiredSpeed, EmptyQueueIsZero) {
  EXPECT_DOUBLE_EQ(required_speed(0.0, {}), 0.0);
}

TEST(RequiredSpeed, SingleJob) {
  Fixture fx;
  fx.add(300.0, 0.15);
  EXPECT_NEAR(required_speed(0.0, fx.span()), 2000.0, 1e-9);
}

TEST(RequiredSpeed, MaxPrefixIntensity) {
  Fixture fx;
  fx.add(100.0, 0.1);  // prefix 1: 1000 u/s
  fx.add(500.0, 0.2);  // prefix 2: 3000 u/s  <- critical
  fx.add(100.0, 1.0);  // prefix 3: 700 u/s
  EXPECT_NEAR(required_speed(0.0, fx.span()), 3000.0, 1e-9);
}

TEST(EnergyOpt, EmptyPlanForNoJobs) {
  ExecutionPlan plan;
  plan_min_energy(0.0, {}, 2000.0, plan);
  EXPECT_TRUE(plan.empty());
}

TEST(EnergyOpt, SingleJobRunsAtExactIntensity) {
  Fixture fx;
  fx.add(300.0, 0.15);
  ExecutionPlan plan;
  plan_min_energy(0.0, fx.span(), kInf, plan);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_NEAR(plan.segments[0].speed, 2000.0, 1e-9);
  EXPECT_NEAR(plan.segments[0].end, 0.15, 1e-12);
  EXPECT_NEAR(plan.segments[0].units, 300.0, 1e-9);
}

TEST(EnergyOpt, CompletesAllWorkWhenUncapped) {
  Fixture fx;
  fx.add(100.0, 0.10);
  fx.add(400.0, 0.20);
  fx.add(250.0, 0.50);
  ExecutionPlan plan;
  plan_min_energy(0.0, fx.span(), kInf, plan);
  EXPECT_NEAR(testdata::plan_units(plan), 750.0, 1e-6);
  plan.validate(0.0);
}

TEST(EnergyOpt, MeetsEveryDeadlineWhenUncapped) {
  Fixture fx;
  fx.add(100.0, 0.10);
  fx.add(400.0, 0.20);
  fx.add(250.0, 0.50);
  ExecutionPlan plan;
  plan_min_energy(0.0, fx.span(), kInf, plan);
  double done0 = 0.0;
  for (const PlanSegment& seg : plan.segments) {
    EXPECT_LE(seg.end, seg.job->deadline + 1e-9);
    done0 += seg.units;
  }
  (void)done0;
}

TEST(EnergyOpt, BlockSpeedsNonIncreasing) {
  Fixture fx;
  fx.add(300.0, 0.10);  // intense head
  fx.add(100.0, 0.50);
  fx.add(100.0, 1.00);
  ExecutionPlan plan;
  plan_min_energy(0.0, fx.span(), kInf, plan);
  for (std::size_t i = 1; i < plan.segments.size(); ++i) {
    EXPECT_LE(plan.segments[i].speed, plan.segments[i - 1].speed + 1e-9);
  }
}

TEST(EnergyOpt, EdfOrderPreserved) {
  Fixture fx;
  fx.add(100.0, 0.10);
  fx.add(100.0, 0.20);
  fx.add(100.0, 0.30);
  ExecutionPlan plan;
  plan_min_energy(0.0, fx.span(), kInf, plan);
  ASSERT_EQ(plan.segments.size(), 3u);
  EXPECT_EQ(plan.segments[0].job->id, 1u);
  EXPECT_EQ(plan.segments[1].job->id, 2u);
  EXPECT_EQ(plan.segments[2].job->id, 3u);
}

TEST(EnergyOpt, CapTruncatesAtDeadline) {
  Fixture fx;
  fx.add(1000.0, 0.25);  // needs 4000 u/s, cap is 2000
  ExecutionPlan plan;
  plan_min_energy(0.0, fx.span(), 2000.0, plan);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_NEAR(plan.segments[0].speed, 2000.0, 1e-9);
  EXPECT_NEAR(plan.segments[0].end, 0.25, 1e-12);
  EXPECT_NEAR(plan.segments[0].units, 500.0, 1e-9);
}

TEST(EnergyOpt, ZeroCapYieldsEmptyPlan) {
  Fixture fx;
  fx.add(100.0, 0.5);
  ExecutionPlan plan;
  plan_min_energy(0.0, fx.span(), 0.0, plan);
  EXPECT_TRUE(plan.empty());
}

TEST(EnergyOpt, SkipsZeroRemainingJobs) {
  Fixture fx;
  fx.add(0.0, 0.10);
  fx.add(100.0, 0.20);
  ExecutionPlan plan;
  plan_min_energy(0.0, fx.span(), kInf, plan);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].job->id, 2u);
}

TEST(EnergyOpt, StartsFromNow) {
  Fixture fx;
  fx.add(100.0, 2.0);
  ExecutionPlan plan;
  plan_min_energy(1.5, fx.span(), kInf, plan);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_NEAR(plan.segments[0].start, 1.5, 1e-12);
  EXPECT_NEAR(plan.segments[0].speed, 200.0, 1e-9);
}

// Optimality cross-check: for two jobs with agreeable deadlines the optimal
// energy can be found by brute force over the single free parameter (the
// speed of the first block).
TEST(EnergyOpt, MatchesBruteForceTwoJobs) {
  const power::PowerModel pm(5.0, 2.0, 1000.0);
  util::Rng rng(1234);
  for (int trial = 0; trial < 100; ++trial) {
    Fixture fx;
    const double w1 = rng.uniform(50.0, 500.0);
    const double w2 = rng.uniform(50.0, 500.0);
    const double d1 = rng.uniform(0.05, 0.3);
    const double d2 = d1 + rng.uniform(0.01, 0.3);
    fx.add(w1, d1);
    fx.add(w2, d2);
    ExecutionPlan plan;
    plan_min_energy(0.0, fx.span(), kInf, plan);
    const double plan_energy = plan.total_energy(pm);

    // Brute force: job 1 finishes at time t1 in (w1/huge, d1]; job 1 runs at
    // w1/t1, job 2 at w2/(d2-t1) (running slower than necessary never helps
    // with convex power).
    double best = 1e18;
    for (int i = 1; i <= 20000; ++i) {
      const double t1 = d1 * static_cast<double>(i) / 20000.0;
      const double s1 = w1 / t1;
      const double s2 = w2 / (d2 - t1);
      const double energy = pm.power(s1) * t1 + pm.power(s2) * (d2 - t1);
      best = std::min(best, energy);
    }
    EXPECT_LE(plan_energy, best * 1.001)
        << "w1=" << w1 << " w2=" << w2 << " d1=" << d1 << " d2=" << d2;
  }
}

// Random feasibility property: with an uncapped plan every job completes by
// its deadline, and with any cap the plan never exceeds it.
class EnergyOptRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnergyOptRandom, FeasibleAndCapRespected) {
  util::Rng rng(GetParam());
  Fixture fx;
  const std::size_t n = 1 + rng.uniform_index(10);
  double deadline = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    deadline += rng.uniform(0.01, 0.2);
    fx.add(rng.uniform(10.0, 800.0), deadline);
  }
  const double cap = rng.uniform(500.0, 6000.0);
  ExecutionPlan plan;
  plan_min_energy(0.0, fx.span(), cap, plan);
  plan.validate(0.0);
  double total_remaining = 0.0;
  for (const auto& pj : fx.plan_jobs) {
    total_remaining += pj.remaining;
  }
  for (const PlanSegment& seg : plan.segments) {
    ASSERT_LE(seg.speed, cap * (1.0 + 1e-9));
    ASSERT_LE(seg.end, seg.job->deadline + 1e-9);
  }
  ASSERT_LE(testdata::plan_units(plan), total_remaining + 1e-6);
  if (required_speed(0.0, fx.span()) <= cap) {
    ASSERT_NEAR(testdata::plan_units(plan), total_remaining, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, EnergyOptRandom,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(ExecutionPlan, MaxPowerAndEnergy) {
  const power::PowerModel pm(5.0, 2.0, 1000.0);
  Fixture fx;
  fx.add(200.0, 0.1);
  ExecutionPlan plan;
  plan_min_energy(0.0, fx.span(), kInf, plan);
  EXPECT_NEAR(plan.max_power(pm), 20.0, 1e-9);  // 2 GHz -> 20 W
  EXPECT_NEAR(plan.total_energy(pm), 2.0, 1e-9);  // 20 W for 0.1 s
}

TEST(ExecutionPlan, ValidateRejectsOverlap) {
  workload::Job job;
  job.demand = job.target = 100.0;
  job.deadline = 1.0;
  ExecutionPlan plan;
  plan.segments.push_back(PlanSegment{&job, 0.0, 0.5, 100.0, 50.0});
  plan.segments.push_back(PlanSegment{&job, 0.4, 0.9, 100.0, 50.0});
  EXPECT_DEATH(plan.validate(0.0), "overlap");
}

TEST(ExecutionPlan, ValidateRejectsDeadlineOverrun) {
  workload::Job job;
  job.demand = job.target = 100.0;
  job.deadline = 0.3;
  ExecutionPlan plan;
  plan.segments.push_back(PlanSegment{&job, 0.0, 0.5, 200.0, 100.0});
  EXPECT_DEATH(plan.validate(0.0), "deadline");
}

}  // namespace
}  // namespace ge::opt

// -- additional hardening: 3-job brute force and boundary cases --------------

namespace ge::opt {
namespace {

TEST(EnergyOpt, MatchesBruteForceThreeJobs) {
  const power::PowerModel pm(5.0, 2.0, 1000.0);
  util::Rng rng(777);
  for (int trial = 0; trial < 30; ++trial) {
    Fixture fx;
    const double w1 = rng.uniform(50.0, 400.0);
    const double w2 = rng.uniform(50.0, 400.0);
    const double w3 = rng.uniform(50.0, 400.0);
    const double d1 = rng.uniform(0.05, 0.2);
    const double d2 = d1 + rng.uniform(0.02, 0.2);
    const double d3 = d2 + rng.uniform(0.02, 0.2);
    fx.add(w1, d1);
    fx.add(w2, d2);
    fx.add(w3, d3);
    ExecutionPlan plan;
    plan_min_energy(0.0, fx.span(), kInf, plan);
    const double plan_energy = plan.total_energy(pm);

    // Brute force over the two free finish times t1 in (0, d1], t2 in
    // (t1, d2] on a grid; job 3 then runs at w3/(d3-t2).
    double best = 1e18;
    const int steps = 300;
    for (int i = 1; i <= steps; ++i) {
      const double t1 = d1 * i / steps;
      const double e1 = pm.power(w1 / t1) * t1;
      for (int j = 1; j <= steps; ++j) {
        const double t2 = t1 + (d2 - t1) * j / steps;
        if (t2 >= d3) {
          continue;
        }
        const double e2 = pm.power(w2 / (t2 - t1)) * (t2 - t1);
        const double e3 = pm.power(w3 / (d3 - t2)) * (d3 - t2);
        best = std::min(best, e1 + e2 + e3);
      }
    }
    EXPECT_LE(plan_energy, best * 1.002) << "trial " << trial;
  }
}

TEST(EnergyOpt, CapExactlyAtRequiredSpeedCompletesEverything) {
  Fixture fx;
  fx.add(200.0, 0.1);
  fx.add(100.0, 0.2);
  const double required = required_speed(0.0, fx.span());
  ExecutionPlan plan;
  plan_min_energy(0.0, fx.span(), required, plan);
  EXPECT_NEAR(testdata::plan_units(plan), 300.0, 1e-6);
  plan.validate(0.0);
}

TEST(EnergyOpt, EqualDeadlinesMergeIntoOneBlock) {
  Fixture fx;
  fx.add(100.0, 0.2);
  fx.add(300.0, 0.2);
  ExecutionPlan plan;
  plan_min_energy(0.0, fx.span(), kInf, plan);
  ASSERT_EQ(plan.segments.size(), 2u);
  EXPECT_NEAR(plan.segments[0].speed, 2000.0, 1e-9);
  EXPECT_NEAR(plan.segments[1].speed, 2000.0, 1e-9);
  EXPECT_NEAR(plan.segments[1].end, 0.2, 1e-12);
}

TEST(EnergyOpt, TinyRemainingWorkIsStable) {
  Fixture fx;
  fx.add(1e-7, 0.1);
  fx.add(100.0, 0.2);
  ExecutionPlan plan;
  plan_min_energy(0.0, fx.span(), kInf, plan);
  plan.validate(0.0);
  EXPECT_NEAR(testdata::plan_units(plan), 100.0 + 1e-7, 1e-6);
}

}  // namespace
}  // namespace ge::opt
