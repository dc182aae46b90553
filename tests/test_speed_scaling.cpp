// Tests for the online speed-scaling zoo (core/speed_scaling.h): the OA
// re-plan's taut string against a reference staircase, the OA == YDS
// differential on an offline instance, and deadline-feasibility property
// checks for OA/qOA/AVR/BKP under fuzzed workloads across the materialised
// and streaming paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
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

// Mirrors the scheduler's tolerance: jobs due within kTimeEps of a re-plan
// are left to their deadline events.
constexpr double kTimeEps = 1e-9;

// One pending job of an OA re-plan: remaining work due by a deadline.
struct PendingJob {
  double deadline = 0.0;
  double remaining = 0.0;
};

// One step of the staircase: `speed` from the previous step's end to `end`.
struct Step {
  double end = 0.0;
  double speed = 0.0;
};

// Reference for the OA re-plan: YDS on an all-released instance computed
// directly as the staircase of critical prefixes.  Each step takes the
// pending-deadline prefix maximising sum(remaining) / (deadline - step
// start); strict '>' keeps the earliest maximiser.
std::vector<Step> reference_oa_staircase(double now, std::vector<PendingJob> jobs) {
  std::erase_if(jobs, [now](const PendingJob& j) {
    return j.remaining <= 0.0 || j.deadline <= now + kTimeEps;
  });
  std::sort(jobs.begin(), jobs.end(), [](const PendingJob& a, const PendingJob& b) {
    return a.deadline < b.deadline;
  });
  std::vector<Step> steps;
  std::size_t i = 0;
  double t0 = now;
  while (i < jobs.size()) {
    double work = 0.0;
    double best_intensity = -1.0;
    std::size_t best = i;
    for (std::size_t j = i; j < jobs.size(); ++j) {
      work += jobs[j].remaining;
      const double intensity = work / (jobs[j].deadline - t0);
      if (intensity > best_intensity) {
        best_intensity = intensity;
        best = j;
      }
    }
    steps.push_back(Step{jobs[best].deadline, best_intensity});
    t0 = jobs[best].deadline;
    i = best + 1;
  }
  return steps;
}

// The re-plan as the scheduler runs it -- every pending job released at
// `now` -- compared with the reference as a function of time.  The taut
// string may merge steps of equal speed, so its breakpoints are a subset of
// the reference's, each exactly equal.  Speeds agree within 1e-12 relative,
// not bitwise: a later step's work is a difference of prefix sums there
// and a restarted sum in the reference.  Where that difference is small
// against the sums, the cancellation is bounded by the total work instead:
// the two cumulative-work curves then agree within 1e-12 of the total.
void expect_profile_matches_staircase(double now, const std::vector<PendingJob>& jobs,
                                      opt::ProfileScratch& scratch,
                                      const std::string& label) {
  std::vector<opt::YdsJob> released;
  double total = 0.0;
  for (const PendingJob& j : jobs) {
    if (j.deadline > now + kTimeEps) {
      released.push_back(opt::YdsJob{now, j.deadline, j.remaining});
      total += j.remaining;
    }
  }
  ASSERT_TRUE(opt::agreeable_profile(released, scratch)) << label;
  const std::vector<opt::SpeedSegment>& profile = scratch.profile;
  const std::vector<Step> steps = reference_oa_staircase(now, jobs);
  ASSERT_EQ(profile.empty(), steps.empty()) << label;
  std::size_t k = 0;  // profile segment covering the current step
  double start = now;
  double capacity = 0.0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    ASSERT_LT(k, profile.size()) << label << " step " << i;
    const opt::SpeedSegment& seg = profile[k];
    EXPECT_EQ(seg.t0, k == 0 ? now : profile[k - 1].t1) << label << " segment " << k;
    ASSERT_GE(seg.t1, steps[i].end) << label << " step " << i;
    EXPECT_NEAR(seg.speed, steps[i].speed,
                1e-12 * std::max(steps[i].speed, total / (steps[i].end - start)))
        << label << " step " << i;
    if (i > 0) {
      EXPECT_LE(steps[i].speed, steps[i - 1].speed) << label << " step " << i;
    }
    capacity += steps[i].speed * (steps[i].end - start);
    start = steps[i].end;
    if (seg.t1 == steps[i].end) {
      ++k;
    }
  }
  EXPECT_EQ(k, profile.size()) << label;
  EXPECT_NEAR(capacity, total, 1e-9 * std::max(1.0, total)) << label;
}

// Hand cases of the OA re-plan on the pending suffix, each also checked
// against the reference staircase.
TEST(OaSuffixSchedule, SingleJobRunsAtItsDensity) {
  opt::ProfileScratch scratch;
  expect_profile_matches_staircase(1.0, {{3.0, 100.0}}, scratch, "single");
  ASSERT_EQ(scratch.profile.size(), 1u);
  EXPECT_DOUBLE_EQ(scratch.profile[0].t1, 3.0);
  EXPECT_DOUBLE_EQ(scratch.profile[0].speed, 50.0);
}

TEST(OaSuffixSchedule, CriticalPrefixDominates) {
  // The tight early job forms its own step; the slack job follows slower.
  opt::ProfileScratch scratch;
  expect_profile_matches_staircase(0.0, {{1.0, 10.0}, {2.0, 2.0}}, scratch,
                                   "tight first");
  ASSERT_EQ(scratch.profile.size(), 2u);
  EXPECT_DOUBLE_EQ(scratch.profile[0].t1, 1.0);
  EXPECT_DOUBLE_EQ(scratch.profile[0].speed, 10.0);
  EXPECT_DOUBLE_EQ(scratch.profile[1].t1, 2.0);
  EXPECT_DOUBLE_EQ(scratch.profile[1].speed, 2.0);

  // When the heavy job comes later, the whole prefix is one critical step.
  expect_profile_matches_staircase(0.0, {{1.0, 4.0}, {2.0, 10.0}}, scratch,
                                   "heavy second");
  ASSERT_EQ(scratch.profile.size(), 1u);
  EXPECT_DOUBLE_EQ(scratch.profile[0].t1, 2.0);
  EXPECT_DOUBLE_EQ(scratch.profile[0].speed, 7.0);
}

TEST(OaSuffixSchedule, CapacityEqualsTotalWorkAndSpeedsDecrease) {
  const std::vector<PendingJob> jobs = {
      {0.5, 30.0}, {1.25, 80.0}, {2.0, 10.0}, {2.0, 5.0}, {3.5, 120.0}};
  double total = 0.0;
  for (const PendingJob& j : jobs) total += j.remaining;
  opt::ProfileScratch scratch;
  expect_profile_matches_staircase(0.0, jobs, scratch, "five");
  const std::vector<opt::SpeedSegment>& profile = scratch.profile;
  ASSERT_FALSE(profile.empty());
  double capacity = 0.0;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    capacity += profile[i].speed * (profile[i].t1 - profile[i].t0);
    if (i > 0) {
      EXPECT_LE(profile[i].speed, profile[i - 1].speed + 1e-12);
    }
  }
  EXPECT_NEAR(capacity, total, 1e-9 * total);
}

// Seeded instances of 1-40 jobs with zero-work jobs and deadlines within
// kTimeEps of `now`, half on an integer grid where intensities tie.  One
// scratch serves every call, as one does every core of a scheduler.
TEST(OaReplan, TautStringMatchesTheReferenceStaircase) {
  opt::ProfileScratch scratch;
  std::mt19937_64 rng(2929);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 2000; ++trial) {
    const bool grid = trial % 2 == 1;
    const double now = grid ? std::floor(100.0 * unit(rng)) : 100.0 * unit(rng);
    const std::size_t n = 1 + static_cast<std::size_t>(40.0 * unit(rng));
    std::vector<PendingJob> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      PendingJob j;
      const double u = unit(rng);
      if (u < 0.1) {
        j.deadline = now + 2.0 * kTimeEps * unit(rng);  // due at the re-plan
      } else if (grid) {
        j.deadline = now + 1.0 + std::floor(8.0 * unit(rng));
      } else {
        j.deadline = now + 1e-6 + 2.0 * unit(rng);
      }
      if (unit(rng) >= 0.125) {
        j.remaining = grid ? 100.0 * std::floor(1.0 + 5.0 * unit(rng))
                           : 500.0 * unit(rng);
      }
      jobs.push_back(j);
    }
    expect_profile_matches_staircase(now, jobs, scratch,
                                     "trial " + std::to_string(trial));
    if (HasFatalFailure()) {
      return;
    }
  }
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
  // so the energy of its taut-string plan must match the critical-interval
  // kernel's yds_min_energy.
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
