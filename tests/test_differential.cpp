// Differential tests: the closed-form optimisers against brute force.
//
// The Energy-OPT planner and the Quality-OPT allocator are the two pieces of
// nontrivial optimisation theory in the scheduler; both have compact
// implementations whose correctness is easy to break silently (a wrong
// prefix bound still produces *a* plan).  On instances small enough to
// enumerate, brute force is an oracle:
//
//  * plan_min_energy: the optimal all-released schedule is a partition of
//    the EDF sequence into consecutive blocks, each run at the constant
//    speed that finishes it exactly at its last job's deadline.  With
//    n <= 7 jobs all 2^(n-1) partitions can be enumerated, infeasible ones
//    discarded, and the cheapest compared against the planner's energy.
//  * maximize_quality: the feasible set is the polymatroid of nested prefix
//    constraints; a fine grid over extra allocations (n <= 4) bounds the
//    optimum from below, and the analytic solution must match or beat every
//    feasible grid point.
//  * the full YDS scheduler is an independent implementation of the same
//    optimisation (critical intervals over arbitrary releases); with all
//    releases at zero its minimal energy must agree with plan_min_energy.
//
// Every sweep uses fixed seeds so failures reproduce exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "opt_totals.h"
#include "opt/energy_opt.h"
#include "opt/plan.h"
#include "opt/quality_opt.h"
#include "opt/yds.h"
#include "power/power_model.h"
#include "quality/quality_function.h"
#include "workload/job.h"

namespace ge::opt {
namespace {

constexpr double kTol = 1e-6;

// Builds an EDF-sorted PlanJob instance over `jobs` storage.
std::vector<PlanJob> make_instance(std::vector<workload::Job>& storage,
                                   const std::vector<double>& work,
                                   const std::vector<double>& deadlines) {
  storage.clear();
  storage.resize(work.size());
  std::vector<PlanJob> plan(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    storage[i].id = i + 1;
    storage[i].deadline = deadlines[i];
    storage[i].demand = work[i];
    storage[i].target = work[i];
    plan[i] = PlanJob{&storage[i], work[i], deadlines[i]};
  }
  std::sort(plan.begin(), plan.end(), [](const PlanJob& a, const PlanJob& b) {
    if (a.deadline != b.deadline) {
      return a.deadline < b.deadline;
    }
    return a.job->id < b.job->id;
  });
  return plan;
}

// Brute-force minimal energy over all consecutive-block partitions of the
// EDF sequence.  A block [i, j] starts when the previous block ends and runs
// at the constant speed finishing exactly at deadline[j]; it is feasible
// when every intermediate job still meets its own deadline at that speed.
double brute_force_min_energy(double now, const std::vector<PlanJob>& jobs,
                              const power::PowerModel& pm) {
  const std::size_t n = jobs.size();
  double best = std::numeric_limits<double>::infinity();
  const std::uint32_t masks = 1u << (n - 1);  // bit k set = block break after k
  for (std::uint32_t mask = 0; mask < masks; ++mask) {
    double t = now;
    double energy = 0.0;
    bool feasible = true;
    std::size_t i = 0;
    while (i < n && feasible) {
      std::size_t j = i;
      while (j + 1 < n && ((mask >> j) & 1u) == 0) {
        ++j;
      }
      double block_work = 0.0;
      for (std::size_t k = i; k <= j; ++k) {
        block_work += jobs[k].remaining;
      }
      const double horizon = jobs[j].deadline - t;
      if (horizon <= 0.0) {
        feasible = false;
        break;
      }
      const double speed = block_work / horizon;
      // Intermediate deadlines within the block at this constant speed.
      double done = 0.0;
      for (std::size_t k = i; k <= j; ++k) {
        done += jobs[k].remaining;
        if (t + done / speed > jobs[k].deadline + kTol) {
          feasible = false;
          break;
        }
      }
      energy += pm.power(speed) * horizon;
      t = jobs[j].deadline;
      i = j + 1;
    }
    if (feasible) {
      best = std::min(best, energy);
    }
  }
  return best;
}

TEST(Differential, EnergyOptMatchesBruteForcePartitions) {
  const power::PowerModel pm(5.0, 2.0, 1000.0);
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> work_dist(50.0, 1200.0);
  std::uniform_real_distribution<double> slack_dist(0.05, 1.5);
  std::uniform_int_distribution<int> n_dist(1, 7);

  int optimal_hits = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int n = n_dist(rng);
    std::vector<double> work(static_cast<std::size_t>(n));
    std::vector<double> deadlines(static_cast<std::size_t>(n));
    double d = 0.0;
    for (int i = 0; i < n; ++i) {
      work[static_cast<std::size_t>(i)] = work_dist(rng);
      d += slack_dist(rng);
      deadlines[static_cast<std::size_t>(i)] = d;
    }
    std::vector<workload::Job> storage;
    const std::vector<PlanJob> jobs = make_instance(storage, work, deadlines);

    ExecutionPlan plan;
    plan_min_energy(0.0, jobs, std::numeric_limits<double>::infinity(), plan);
    plan.validate(0.0);
    double total_work = 0.0;
    for (const PlanJob& j : jobs) {
      total_work += j.remaining;
    }
    EXPECT_NEAR(testdata::plan_units(plan), total_work, kTol * total_work)
        << "plan must complete every job when uncapped";

    const double oracle = brute_force_min_energy(0.0, jobs, pm);
    const double planned = plan.total_energy(pm);
    ASSERT_TRUE(std::isfinite(oracle)) << "instance has a feasible partition";
    // The planner must be optimal: no cheaper feasible partition exists, and
    // the planner's own energy is achieved by some partition.
    EXPECT_LE(planned, oracle * (1.0 + 1e-9)) << "trial " << trial;
    EXPECT_GE(planned, oracle * (1.0 - 1e-9)) << "trial " << trial;
    ++optimal_hits;
  }
  EXPECT_EQ(optimal_hits, 300);
}

TEST(Differential, EnergyOptAgreesWithFullYds) {
  // Independent-implementation cross-check: with every release at plan time
  // the full YDS critical-interval scheduler solves the same instance.
  const power::PowerModel pm(5.0, 2.0, 1000.0);
  std::mt19937_64 rng(32);
  std::uniform_real_distribution<double> work_dist(50.0, 1500.0);
  std::uniform_real_distribution<double> slack_dist(0.05, 2.0);
  std::uniform_int_distribution<int> n_dist(1, 12);

  for (int trial = 0; trial < 200; ++trial) {
    const int n = n_dist(rng);
    std::vector<double> work(static_cast<std::size_t>(n));
    std::vector<double> deadlines(static_cast<std::size_t>(n));
    std::vector<YdsJob> yds(static_cast<std::size_t>(n));
    double d = 0.0;
    for (int i = 0; i < n; ++i) {
      const auto k = static_cast<std::size_t>(i);
      work[k] = work_dist(rng);
      d += slack_dist(rng);
      deadlines[k] = d;
      yds[k] = YdsJob{0.0, d, work[k]};
    }
    std::vector<workload::Job> storage;
    const std::vector<PlanJob> jobs = make_instance(storage, work, deadlines);
    ExecutionPlan plan;
    plan_min_energy(0.0, jobs, std::numeric_limits<double>::infinity(), plan);
    const double planned = plan.total_energy(pm);
    const double reference = yds_min_energy(yds, pm);
    EXPECT_NEAR(planned, reference, 1e-9 * std::max(planned, 1.0))
        << "trial " << trial << " n=" << n;
  }
}

// Feasibility of an extra-allocation vector under the nested prefix
// constraints sum_{j<=k} x_j <= cap * (d_k - now).
bool allocation_feasible(double now, const std::vector<AllocJob>& jobs,
                         const std::vector<double>& extra, double cap) {
  double prefix = 0.0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    if (extra[k] < -kTol || extra[k] > jobs[k].max_extra + kTol) {
      return false;
    }
    prefix += extra[k];
    if (prefix > cap * (jobs[k].deadline - now) + kTol) {
      return false;
    }
  }
  return true;
}

TEST(Differential, QualityOptBeatsEveryGridAllocation) {
  const quality::ExponentialQuality f(0.003, 1000.0);
  std::mt19937_64 rng(33);
  std::uniform_real_distribution<double> extra_dist(50.0, 900.0);
  std::uniform_real_distribution<double> exec_dist(0.0, 300.0);
  std::uniform_real_distribution<double> slack_dist(0.1, 0.8);
  std::uniform_real_distribution<double> cap_dist(200.0, 1500.0);
  std::uniform_int_distribution<int> n_dist(1, 4);

  for (int trial = 0; trial < 120; ++trial) {
    const int n = n_dist(rng);
    std::vector<AllocJob> jobs(static_cast<std::size_t>(n));
    double d = 0.0;
    for (auto& j : jobs) {
      d += slack_dist(rng);
      j = AllocJob{exec_dist(rng), extra_dist(rng), d};
    }
    const double cap = cap_dist(rng);

    QualityOptScratch scratch;
    maximize_quality(0.0, jobs, cap, f, scratch);
    const std::vector<double>& extra = scratch.extra;
    ASSERT_EQ(extra.size(), jobs.size());
    EXPECT_TRUE(allocation_feasible(0.0, jobs, extra, cap)) << "trial " << trial;
    const double analytic = testdata::allocation_quality(jobs, extra, f);

    // Exhaustive grid over x_j in [0, max_extra], 12 steps per axis
    // (12^4 = 20736 points max).  Every feasible grid point must not beat
    // the analytic optimum.
    constexpr int kSteps = 12;
    std::vector<int> idx(static_cast<std::size_t>(n), 0);
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    double grid_best = -1.0;
    bool done = false;
    while (!done) {
      for (int i = 0; i < n; ++i) {
        const auto k = static_cast<std::size_t>(i);
        x[k] = jobs[k].max_extra * idx[k] / kSteps;
      }
      if (allocation_feasible(0.0, jobs, x, cap)) {
        grid_best = std::max(grid_best, testdata::allocation_quality(jobs, x, f));
      }
      int i = 0;
      while (i < n && ++idx[static_cast<std::size_t>(i)] > kSteps) {
        idx[static_cast<std::size_t>(i)] = 0;
        ++i;
      }
      done = i == n;
    }
    EXPECT_GE(analytic, grid_best - 1e-9) << "trial " << trial << " n=" << n;
  }
}

TEST(Differential, QualityOptUncappedTakesEverything) {
  // With capacity far above the total extra work the allocator must saturate
  // every job (f is strictly increasing below xmax).
  const quality::ExponentialQuality f(0.003, 1000.0);
  std::vector<AllocJob> jobs = {
      AllocJob{100.0, 400.0, 1.0},
      AllocJob{0.0, 700.0, 2.0},
      AllocJob{250.0, 300.0, 3.0},
  };
  QualityOptScratch scratch;
  maximize_quality(0.0, jobs, 1e7, f, scratch);
  const std::vector<double>& extra = scratch.extra;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_NEAR(extra[i], jobs[i].max_extra, 1e-6) << "job " << i;
  }
}

TEST(Differential, QualityOptZeroCapAllocatesNothing) {
  const quality::ExponentialQuality f(0.003, 1000.0);
  std::vector<AllocJob> jobs = {AllocJob{0.0, 500.0, 1.0}};
  for (double cap : {0.0, -5.0}) {
    QualityOptScratch scratch;
    maximize_quality(0.0, jobs, cap, f, scratch);
    const std::vector<double>& extra = scratch.extra;
    ASSERT_EQ(extra.size(), 1u);
    EXPECT_EQ(extra[0], 0.0);
  }
}

}  // namespace
}  // namespace ge::opt
