// Tests for the full preemptive YDS scheduler and the offline reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "agreeable_instances.h"
#include "exp/config.h"
#include "exp/offline_reference.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "opt/energy_opt.h"
#include "opt/yds.h"
#include "power/power_model.h"
#include "util/rng.h"
#include "workload/job.h"

namespace ge::opt {
namespace {

const power::PowerModel& pm() {
  static const power::PowerModel model(5.0, 2.0, 1000.0);
  return model;
}

TEST(Yds, EmptyInstance) {
  const YdsSchedule s = yds_schedule({});
  EXPECT_TRUE(s.blocks.empty());
  EXPECT_DOUBLE_EQ(s.total_work(), 0.0);
  EXPECT_DOUBLE_EQ(s.energy(pm()), 0.0);
}

TEST(Yds, SingleJobRunsAtItsIntensity) {
  const YdsJob job{0.0, 0.5, 1000.0};
  const YdsSchedule s = yds_schedule({{job}});
  ASSERT_EQ(s.blocks.size(), 1u);
  EXPECT_NEAR(s.blocks[0].speed, 2000.0, 1e-9);
  EXPECT_NEAR(s.blocks[0].duration, 0.5, 1e-12);
  EXPECT_NEAR(s.total_work(), 1000.0, 1e-9);
}

TEST(Yds, ZeroWorkJobsIgnored) {
  const std::vector<YdsJob> jobs{{0.0, 1.0, 0.0}, {0.0, 1.0, 500.0}};
  const YdsSchedule s = yds_schedule(jobs);
  EXPECT_NEAR(s.total_work(), 500.0, 1e-9);
}

TEST(Yds, TextbookTwoJobInstance) {
  // Job A: [0, 1], 100 units; job B: [0, 2], 100 units.
  // Critical interval [0,1] has intensity (A only? both?): jobs contained in
  // [0,1]: A -> 100/1 = 100.  Interval [0,2]: 200/2 = 100.  Equal; the
  // optimum runs at a constant 100 units/s throughout.
  const std::vector<YdsJob> jobs{{0.0, 1.0, 100.0}, {0.0, 2.0, 100.0}};
  const YdsSchedule s = yds_schedule(jobs);
  EXPECT_NEAR(s.total_work(), 200.0, 1e-9);
  EXPECT_NEAR(s.max_speed(), 100.0, 1e-6);
  EXPECT_NEAR(s.energy(pm()), pm().power(100.0) * 2.0, 1e-9);
}

TEST(Yds, LateReleaseForcesFasterBlock) {
  // Job A: [0, 2], 100 units.  Job B: [1.5, 2.0], 200 units -> the interval
  // [1.5, 2] has intensity 400, dominating; A spreads over the rest.
  const std::vector<YdsJob> jobs{{0.0, 2.0, 100.0}, {1.5, 2.0, 200.0}};
  const YdsSchedule s = yds_schedule(jobs);
  ASSERT_EQ(s.blocks.size(), 2u);
  EXPECT_NEAR(s.blocks[0].speed, 400.0, 1e-6);
  EXPECT_NEAR(s.blocks[0].duration, 0.5, 1e-9);
  // A runs over the remaining 1.5 s of timeline at 100/1.5.
  EXPECT_NEAR(s.blocks[1].speed, 100.0 / 1.5, 1e-6);
}

TEST(Yds, BlockSpeedsNonIncreasing) {
  util::Rng rng(55);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<YdsJob> jobs;
    const std::size_t n = 2 + rng.uniform_index(15);
    for (std::size_t i = 0; i < n; ++i) {
      const double release = rng.uniform(0.0, 2.0);
      jobs.push_back(YdsJob{release, release + rng.uniform(0.05, 1.0),
                            rng.uniform(10.0, 500.0)});
    }
    const YdsSchedule s = yds_schedule(jobs);
    for (std::size_t i = 1; i < s.blocks.size(); ++i) {
      ASSERT_LE(s.blocks[i].speed, s.blocks[i - 1].speed + 1e-6);
    }
    double work = 0.0;
    for (const YdsJob& job : jobs) {
      work += job.work;
    }
    ASSERT_NEAR(s.total_work(), work, 1e-6);
  }
}

TEST(Yds, MatchesRestrictedPlannerWhenAllReleased) {
  // With every job released at time 0 and agreeable deadlines, the full YDS
  // optimum coincides with the restricted max-prefix-intensity planner.
  util::Rng rng(66);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(10);
    std::vector<workload::Job> jobs(n);
    std::vector<PlanJob> plan_jobs;
    std::vector<YdsJob> yds_jobs;
    double deadline = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      deadline += rng.uniform(0.02, 0.3);
      const double work = rng.uniform(10.0, 600.0);
      jobs[i].id = i + 1;
      jobs[i].deadline = deadline;
      jobs[i].demand = jobs[i].target = work;
      plan_jobs.push_back(PlanJob{&jobs[i], work, deadline});
      yds_jobs.push_back(YdsJob{0.0, deadline, work});
    }
    const ExecutionPlan plan = plan_min_energy(0.0, plan_jobs, 1e12);
    const YdsSchedule yds = yds_schedule(yds_jobs);
    ASSERT_NEAR(plan.total_energy(pm()), yds.energy(pm()),
                1e-6 * (1.0 + yds.energy(pm())))
        << "trial " << trial;
  }
}

TEST(Yds, EnergyNeverAboveConstantSpeedSchedule) {
  // Running everything at the max prefix... simplest competitor: constant
  // speed = total work / horizon whenever that is feasible; YDS must not be
  // worse than any feasible schedule it can be compared with here.
  const std::vector<YdsJob> jobs{{0.0, 1.0, 300.0}, {0.5, 2.0, 300.0}};
  const YdsSchedule s = yds_schedule(jobs);
  // Feasible competitor: 300 units in [0,1] at 300 u/s, 300 in [1,2] at 300.
  const double competitor = pm().power(300.0) * 2.0;
  EXPECT_LE(s.energy(pm()), competitor + 1e-9);
}

TEST(Yds, RejectsEmptyWindow) {
  const std::vector<YdsJob> jobs{{1.0, 1.0, 10.0}};
  EXPECT_DEATH((void)yds_schedule(jobs), "window");
}

// ---- exactness of the candidate scan ---------------------------------------
//
// Reference oracle: the plain scan -- every row walks all jobs through
// deadline-sorted pointers -- and the round loop around it.  yds_schedule
// must reproduce every block bit for bit: same rows, same per-row summation
// order, same (t1 ascending, t2 ascending) argmax with its "> best + 1e-12"
// rule.

constexpr double kRefTimeTol = 1e-12;

struct RefCritical {
  double t1 = 0.0;
  double t2 = 0.0;
  double intensity = -1.0;
};

RefCritical reference_find_critical(const std::vector<YdsJob>& jobs) {
  RefCritical best;
  std::vector<double> releases;
  releases.reserve(jobs.size());
  for (const YdsJob& job : jobs) {
    releases.push_back(job.release);
  }
  std::sort(releases.begin(), releases.end());
  releases.erase(std::unique(releases.begin(), releases.end()), releases.end());

  std::vector<const YdsJob*> by_deadline;
  by_deadline.reserve(jobs.size());
  for (const YdsJob& job : jobs) {
    by_deadline.push_back(&job);
  }
  std::sort(by_deadline.begin(), by_deadline.end(),
            [](const YdsJob* a, const YdsJob* b) { return a->deadline < b->deadline; });

  for (double t1 : releases) {
    double cumulative = 0.0;
    for (std::size_t i = 0; i < by_deadline.size(); ++i) {
      const YdsJob* job = by_deadline[i];
      if (job->release >= t1 - kRefTimeTol) {
        cumulative += job->work;
      }
      // Only evaluate at the last job sharing this deadline.
      if (i + 1 < by_deadline.size() &&
          by_deadline[i + 1]->deadline <= job->deadline + kRefTimeTol) {
        continue;
      }
      const double t2 = job->deadline;
      if (t2 <= t1 + kRefTimeTol || cumulative <= 0.0) {
        continue;
      }
      const double intensity = cumulative / (t2 - t1);
      if (intensity > best.intensity + 1e-12) {
        best = RefCritical{t1, t2, intensity};
      }
    }
  }
  return best;
}

std::vector<YdsBlock> reference_yds_blocks(const std::vector<YdsJob>& input) {
  std::vector<YdsJob> jobs;
  for (const YdsJob& job : input) {
    if (job.work > 0.0) {
      jobs.push_back(job);
    }
  }
  std::vector<YdsBlock> blocks;
  while (!jobs.empty()) {
    const RefCritical crit = reference_find_critical(jobs);
    const double t1 = crit.t1;
    const double t2 = crit.t2;
    YdsBlock block;
    block.duration = t2 - t1;
    block.speed = crit.intensity;
    auto collapse = [t1, t2](double t) {
      if (t <= t1 + kRefTimeTol) {
        return t;
      }
      if (t < t2) {
        return t1;
      }
      return t - (t2 - t1);
    };
    std::vector<YdsJob> remaining;
    remaining.reserve(jobs.size());
    for (const YdsJob& job : jobs) {
      const bool contained =
          job.release >= t1 - kRefTimeTol && job.deadline <= t2 + kRefTimeTol;
      if (contained) {
        block.work += job.work;
        ++block.jobs;
        continue;
      }
      YdsJob shrunk = job;
      shrunk.release = collapse(job.release);
      shrunk.deadline = collapse(job.deadline);
      remaining.push_back(shrunk);
    }
    blocks.push_back(block);
    jobs = std::move(remaining);
  }
  return blocks;
}

void expect_blocks_bitwise_equal(const std::vector<YdsJob>& jobs,
                                 const std::string& label) {
  const std::vector<YdsBlock> expected = reference_yds_blocks(jobs);
  const std::vector<YdsBlock> actual = yds_schedule(jobs).blocks;
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t b = 0; b < expected.size(); ++b) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[b].duration),
              std::bit_cast<std::uint64_t>(expected[b].duration))
        << label << " block " << b;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[b].speed),
              std::bit_cast<std::uint64_t>(expected[b].speed))
        << label << " block " << b;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[b].work),
              std::bit_cast<std::uint64_t>(expected[b].work))
        << label << " block " << b;
    EXPECT_EQ(actual[b].jobs, expected[b].jobs) << label << " block " << b;
  }
}

TEST(YdsScanExactness, RandomInstancesMatchTheReferenceBitwise) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform(0.0, 250.0));
    std::vector<YdsJob> jobs;
    for (int i = 0; i < n; ++i) {
      const double r = rng.uniform(0.0, 10.0);
      // Every tenth job carries no work: it must be ignored identically.
      const double w = i % 10 == 9 ? 0.0 : rng.uniform(1.0, 100.0);
      jobs.push_back({r, r + rng.uniform(0.01, 2.0), w});
    }
    expect_blocks_bitwise_equal(jobs, "random trial " + std::to_string(trial));
  }
}

// Integer grids force exact intensity ties (the 1e-12 rule decides them),
// shared deadlines (only the last of a group closes a candidate) and shared
// releases (one row per distinct release).
TEST(YdsScanExactness, IntegerGridTiesMatchTheReferenceBitwise) {
  util::Rng rng(777);
  for (int trial = 0; trial < 80; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform(0.0, 60.0));
    const double grid = trial % 2 == 0 ? 1.0 : 0.25;
    std::vector<YdsJob> jobs;
    for (int i = 0; i < n; ++i) {
      const double r = grid * std::floor(rng.uniform(0.0, 8.0));
      const double d = r + grid * (1.0 + std::floor(rng.uniform(0.0, 5.0)));
      jobs.push_back({r, d, std::floor(rng.uniform(1.0, 6.0))});
    }
    expect_blocks_bitwise_equal(jobs, "grid trial " + std::to_string(trial));
  }
}

// Windows barely wider than the 1e-12 time tolerance, released just before
// another job's release: they count towards that release's row although
// their deadline lies within the tolerance of it.
TEST(YdsScanExactness, WindowsNearTheTimeToleranceMatchTheReferenceBitwise) {
  util::Rng rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<YdsJob> jobs;
    for (int i = 0; i < 20; ++i) {
      const double r = std::floor(rng.uniform(0.0, 6.0));
      jobs.push_back({r, r + 1.0 + std::floor(rng.uniform(0.0, 3.0)),
                      std::floor(rng.uniform(1.0, 5.0))});
      const double near = r - rng.uniform(0.1, 0.9) * 1e-12;
      jobs.push_back({near, near + rng.uniform(1.1, 1.9) * 1e-12,
                      rng.uniform(1e-12, 4e-12)});
    }
    expect_blocks_bitwise_equal(jobs, "tolerance trial " + std::to_string(trial));
  }
}

TEST(YdsScanExactness, LargePooledInstanceMatchesTheReferenceBitwise) {
  util::Rng rng(9001);
  std::vector<YdsJob> jobs;
  double t = 0.0;
  for (int i = 0; i < 1500; ++i) {
    t += rng.exponential(300.0);
    jobs.push_back({t, t + rng.uniform(0.05, 0.5), rng.uniform(5.0, 400.0)});
  }
  expect_blocks_bitwise_equal(jobs, "pooled");
}

// ---- the agreeable (taut-string) profile -----------------------------------
//
// Oracle: yds_schedule.  On agreeable instances agreeable_profile must give
// the YDS energy under every convex power curve, within 1e-9 relative.

double profile_energy(const std::vector<SpeedSegment>& profile,
                      const power::PowerModel& model) {
  double total = 0.0;
  for (const SpeedSegment& seg : profile) {
    total += model.power(seg.speed) * (seg.t1 - seg.t0);
  }
  return total;
}

double profile_work(const std::vector<SpeedSegment>& profile) {
  double total = 0.0;
  for (const SpeedSegment& seg : profile) {
    total += seg.speed * (seg.t1 - seg.t0);
  }
  return total;
}

void expect_profile_matches_yds(const std::vector<YdsJob>& jobs,
                                const std::string& label) {
  const std::optional<std::vector<SpeedSegment>> profile = agreeable_profile(jobs);
  ASSERT_TRUE(profile.has_value()) << label;
  double work = 0.0;
  for (const YdsJob& job : jobs) {
    work += job.work;
  }
  EXPECT_NEAR(profile_work(*profile), work, 1e-9 * std::max(1.0, work)) << label;
  for (std::size_t i = 0; i < profile->size(); ++i) {
    const SpeedSegment& seg = (*profile)[i];
    EXPECT_LT(seg.t0, seg.t1) << label << " segment " << i;
    EXPECT_GT(seg.speed, 0.0) << label << " segment " << i;
    if (i > 0) {
      EXPECT_LE((*profile)[i - 1].t1, seg.t0) << label << " segment " << i;
    }
  }
  // Quadratic and cubic power curves: the taut string minimises both.
  const power::PowerModel cubic(2.0, 3.0, 1000.0);
  for (const power::PowerModel* model : {&pm(), &cubic}) {
    const double expected = yds_min_energy(jobs, *model);
    EXPECT_NEAR(profile_energy(*profile, *model), expected,
                1e-9 * std::max(1.0, expected))
        << label << " beta " << model->beta();
  }
}

TEST(AgreeableProfile, EmptyAndZeroWorkInstancesGiveAnEmptyProfile) {
  const std::optional<std::vector<SpeedSegment>> none = agreeable_profile({});
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
  const std::vector<YdsJob> idle{{0.0, 1.0, 0.0}, {0.5, 0.6, 0.0}};
  const std::optional<std::vector<SpeedSegment>> zero = agreeable_profile(idle);
  ASSERT_TRUE(zero.has_value());
  EXPECT_TRUE(zero->empty());
}

TEST(AgreeableProfile, SingleJobRunsAtItsIntensity) {
  const std::vector<YdsJob> jobs{{0.25, 0.75, 1000.0}};
  const std::optional<std::vector<SpeedSegment>> profile = agreeable_profile(jobs);
  ASSERT_TRUE(profile.has_value());
  ASSERT_EQ(profile->size(), 1u);
  EXPECT_EQ((*profile)[0].t0, 0.25);
  EXPECT_EQ((*profile)[0].t1, 0.75);
  EXPECT_EQ((*profile)[0].speed, 2000.0);
}

// A burst released mid-window of a long job: the string climbs to the
// burst's release, runs it at 400/s, then spreads the rest.  The same
// instance as LateReleaseForcesFasterBlock, in real time.
TEST(AgreeableProfile, LateReleaseForcesFasterSegment) {
  const std::vector<YdsJob> jobs{{0.0, 2.0, 100.0}, {1.5, 2.0, 200.0}};
  const std::optional<std::vector<SpeedSegment>> profile = agreeable_profile(jobs);
  ASSERT_TRUE(profile.has_value());
  ASSERT_EQ(profile->size(), 2u);
  EXPECT_NEAR((*profile)[0].speed, 100.0 / 1.5, 1e-9);
  EXPECT_EQ((*profile)[0].t1, 1.5);
  EXPECT_NEAR((*profile)[1].speed, 400.0, 1e-9);
}

// A later release with an earlier deadline is not agreeable.  Zero-work
// jobs do not count: they are dropped before the check.
TEST(AgreeableProfile, NotAgreeableReturnsNothing) {
  const std::vector<YdsJob> nested{{0.0, 10.0, 1.0}, {5.0, 6.0, 5.0}};
  EXPECT_FALSE(agreeable_profile(nested).has_value());
  const std::vector<YdsJob> idle_nested{{0.0, 10.0, 1.0}, {5.0, 6.0, 0.0}};
  EXPECT_TRUE(agreeable_profile(idle_nested).has_value());
}

TEST(AgreeableProfile, RejectsEmptyWindow) {
  const std::vector<YdsJob> jobs{{1.0, 1.0, 10.0}};
  EXPECT_DEATH((void)agreeable_profile(jobs), "window");
}

// Shared releases, shared deadlines, idle gaps, bursts; the first five
// trials are single jobs, and every seventh job carries no work.
TEST(AgreeableProfile, MatchesYdsOnRandomAgreeableInstances) {
  util::Rng rng(1605);
  for (int trial = 0; trial < 100; ++trial) {
    const auto shape = testdata::kAgreeableShapes[trial % 5];
    const std::size_t n = trial < 5 ? 1 : 2 + rng.uniform_index(200);
    expect_profile_matches_yds(testdata::agreeable_instance(rng, shape, n),
                               "trial " + std::to_string(trial) + " shape " +
                                   std::to_string(trial % 5));
  }
}

// Integer grids make many corners collinear and many releases, deadlines
// and cumulative sums tie exactly.
TEST(AgreeableProfile, MatchesYdsOnIntegerGrids) {
  util::Rng rng(88);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(40);
    std::vector<double> releases, deadlines;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = std::floor(rng.uniform(0.0, 10.0));
      releases.push_back(r);
      deadlines.push_back(r + 1.0 + std::floor(rng.uniform(0.0, 4.0)));
    }
    std::sort(releases.begin(), releases.end());
    std::sort(deadlines.begin(), deadlines.end());
    std::vector<YdsJob> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      jobs.push_back({releases[i], deadlines[i], std::floor(rng.uniform(1.0, 5.0))});
    }
    expect_profile_matches_yds(jobs, "grid trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace ge::opt

namespace ge::exp {
namespace {

ExperimentConfig gap_config(double rate) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.arrival_rate = rate;
  cfg.duration = 2.0;
  cfg.seed = 17;
  return cfg;
}

TEST(OfflineReference, EmptyTrace) {
  const OfflineReference ref =
      offline_reference(workload::Trace{}, 0.9, gap_config(100.0));
  EXPECT_DOUBLE_EQ(ref.energy, 0.0);
  EXPECT_TRUE(ref.within_budget);
}

TEST(OfflineReference, QualityMatchesTarget) {
  const ExperimentConfig cfg = gap_config(150.0);
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  const OfflineReference ref = offline_reference(trace, 0.9, cfg);
  EXPECT_NEAR(ref.quality, 0.9, 1e-5);
  EXPECT_GT(ref.total_work, 0.0);
  EXPECT_GT(ref.energy, 0.0);
}

TEST(OfflineReference, LowerEnergyThanGeAtSameQuality) {
  // The reference relaxes onlineness, partitioning, preemption and the
  // budget, so it must not cost more than GE's actual schedule.
  for (double rate : {100.0, 150.0}) {
    const ExperimentConfig cfg = gap_config(rate);
    const workload::Trace trace =
        workload::Trace::generate(cfg.workload_spec(), cfg.duration);
    const RunResult ge = run_simulation(cfg, SchedulerSpec::parse("GE"), trace);
    const OfflineReference ref = offline_reference(trace, cfg.q_ge, cfg);
    EXPECT_LE(ref.energy, ge.energy * 1.001) << "rate " << rate;
  }
}

TEST(OfflineReference, FullQualityCostsMoreThanCutQuality) {
  const ExperimentConfig cfg = gap_config(150.0);
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  const OfflineReference cut = offline_reference(trace, 0.9, cfg);
  const OfflineReference full = offline_reference(trace, 1.0, cfg);
  EXPECT_GT(full.energy, cut.energy);
  EXPECT_NEAR(full.quality, 1.0, 1e-9);
}

}  // namespace
}  // namespace ge::exp
