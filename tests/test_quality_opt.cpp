// Tests for the Quality-OPT allocator (Tians partial processing).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "opt_totals.h"
#include "opt/quality_opt.h"
#include "quality/quality_function.h"
#include "util/rng.h"

namespace ge::opt {
namespace {

using quality::ExponentialQuality;

const ExponentialQuality& paper_f() {
  static const ExponentialQuality f(0.003, 1000.0);
  return f;
}

bool prefix_feasible(double now, const std::vector<AllocJob>& jobs,
                     const std::vector<double>& x, double cap) {
  double prefix = 0.0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    prefix += x[k];
    if (prefix > cap * std::max(jobs[k].deadline - now, 0.0) + 1e-6) {
      return false;
    }
  }
  return true;
}

// Exhaustive grid search over allocations (small instances only).
double brute_force_quality(double now, const std::vector<AllocJob>& jobs, double cap,
                           int steps = 40) {
  std::vector<double> x(jobs.size(), 0.0);
  double best = -1.0;
  std::function<void(std::size_t)> recurse = [&](std::size_t i) {
    if (i == jobs.size()) {
      if (prefix_feasible(now, jobs, x, cap)) {
        best = std::max(best, testdata::allocation_quality(jobs, x, paper_f()));
      }
      return;
    }
    for (int s = 0; s <= steps; ++s) {
      x[i] = jobs[i].max_extra * static_cast<double>(s) / steps;
      recurse(i + 1);
    }
  };
  recurse(0);
  return best;
}

TEST(QualityOpt, EmptyInput) {
  QualityOptScratch scratch;
  maximize_quality(0.0, {}, 1000.0, paper_f(), scratch);
  EXPECT_TRUE(scratch.extra.empty());
}

TEST(QualityOpt, ZeroCapAllocatesNothing) {
  std::vector<AllocJob> jobs{{0.0, 300.0, 0.15}};
  QualityOptScratch scratch;
  maximize_quality(0.0, jobs, 0.0, paper_f(), scratch);
  const std::vector<double>& x = scratch.extra;
  EXPECT_DOUBLE_EQ(x[0], 0.0);
}

TEST(QualityOpt, AmpleCapacityGivesEverything) {
  std::vector<AllocJob> jobs{{0.0, 300.0, 0.5}, {100.0, 200.0, 0.8}};
  QualityOptScratch scratch;
  maximize_quality(0.0, jobs, 1e6, paper_f(), scratch);
  const std::vector<double>& x = scratch.extra;
  EXPECT_NEAR(x[0], 300.0, 1e-6);
  EXPECT_NEAR(x[1], 200.0, 1e-6);
}

TEST(QualityOpt, SingleJobCappedByWindow) {
  std::vector<AllocJob> jobs{{0.0, 500.0, 0.1}};
  QualityOptScratch scratch;
  maximize_quality(0.0, jobs, 2000.0, paper_f(), scratch);
  const std::vector<double>& x = scratch.extra;
  EXPECT_NEAR(x[0], 200.0, 1e-6);  // 2000 u/s * 0.1 s
}

TEST(QualityOpt, EqualJobsGetEqualShares) {
  // Two identical jobs sharing one deadline window: concavity says split
  // evenly rather than finishing one and starving the other.
  std::vector<AllocJob> jobs{{0.0, 400.0, 0.2}, {0.0, 400.0, 0.2}};
  QualityOptScratch scratch;
  maximize_quality(0.0, jobs, 2000.0, paper_f(), scratch);
  const std::vector<double>& x = scratch.extra;
  EXPECT_NEAR(x[0] + x[1], 400.0, 1e-6);
  EXPECT_NEAR(x[0], x[1], 1e-5);
}

TEST(QualityOpt, FavoursLessExecutedJob) {
  // Same remaining capacity; the job with less work done has the higher
  // marginal quality and must receive more.
  std::vector<AllocJob> jobs{{300.0, 400.0, 0.2}, {0.0, 400.0, 0.2}};
  QualityOptScratch scratch;
  maximize_quality(0.0, jobs, 2000.0, paper_f(), scratch);
  const std::vector<double>& x = scratch.extra;
  EXPECT_GT(x[1], x[0]);
}

TEST(QualityOpt, ExpiredPrefixGetsNothing) {
  std::vector<AllocJob> jobs{{0.0, 300.0, -0.1}, {0.0, 300.0, 0.5}};
  QualityOptScratch scratch;
  maximize_quality(0.0, jobs, 2000.0, paper_f(), scratch);
  const std::vector<double>& x = scratch.extra;
  EXPECT_NEAR(x[0], 0.0, 1e-9);
  EXPECT_NEAR(x[1], 300.0, 1e-6);
}

TEST(QualityOpt, TightFirstDeadlineLimitsFirstJob) {
  // Job 1 has a very short window; job 2 has plenty.  The prefix constraint
  // on job 1 must bind while job 2 still completes.
  std::vector<AllocJob> jobs{{0.0, 500.0, 0.05}, {0.0, 100.0, 1.0}};
  QualityOptScratch scratch;
  maximize_quality(0.0, jobs, 2000.0, paper_f(), scratch);
  const std::vector<double>& x = scratch.extra;
  EXPECT_NEAR(x[0], 100.0, 1e-6);  // 2000 * 0.05
  EXPECT_NEAR(x[1], 100.0, 1e-6);
}

TEST(QualityOpt, MatchesBruteForceOnSmallInstances) {
  util::Rng rng(4321);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(2);  // 2..3 jobs
    std::vector<AllocJob> jobs;
    double deadline = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      deadline += rng.uniform(0.02, 0.2);
      jobs.push_back(AllocJob{rng.uniform(0.0, 200.0), rng.uniform(50.0, 400.0),
                              deadline});
    }
    const double cap = rng.uniform(500.0, 3000.0);
    QualityOptScratch scratch;
    maximize_quality(0.0, jobs, cap, paper_f(), scratch);
    const std::vector<double>& x = scratch.extra;
    ASSERT_TRUE(prefix_feasible(0.0, jobs, x, cap));
    const double got = testdata::allocation_quality(jobs, x, paper_f());
    const double best = brute_force_quality(0.0, jobs, cap);
    // The grid is coarse, so brute force slightly underestimates the true
    // optimum; our solution must be at least as good minus grid error.
    EXPECT_GE(got, best - 2e-3) << "trial " << trial;
  }
}

// Random property sweep: feasibility and local-optimality style checks.
class QualityOptRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QualityOptRandom, FeasibleAndSaturates) {
  util::Rng rng(GetParam());
  const std::size_t n = 1 + rng.uniform_index(12);
  std::vector<AllocJob> jobs;
  double deadline = 0.0;
  double total_extra = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    deadline += rng.uniform(0.01, 0.15);
    jobs.push_back(
        AllocJob{rng.uniform(0.0, 300.0), rng.uniform(10.0, 500.0), deadline});
    total_extra += jobs.back().max_extra;
  }
  const double cap = rng.uniform(200.0, 4000.0);
  QualityOptScratch scratch;
  maximize_quality(0.0, jobs, cap, paper_f(), scratch);
  const std::vector<double>& x = scratch.extra;
  ASSERT_EQ(x.size(), n);
  ASSERT_TRUE(prefix_feasible(0.0, jobs, x, cap));
  double used = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_GE(x[i], -1e-9);
    ASSERT_LE(x[i], jobs[i].max_extra + 1e-9);
    used += x[i];
  }
  // Either all work is allocated or some constraint binds (the final prefix
  // at least): check the total cannot be pushed past min(total capacity,
  // total work).
  const double capacity = cap * deadline;
  ASSERT_LE(used, std::min(total_extra, capacity) + 1e-6);
}

TEST_P(QualityOptRandom, MonotoneInCap) {
  util::Rng rng(GetParam() + 500);
  const std::size_t n = 1 + rng.uniform_index(6);
  std::vector<AllocJob> jobs;
  double deadline = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    deadline += rng.uniform(0.02, 0.15);
    jobs.push_back(
        AllocJob{rng.uniform(0.0, 200.0), rng.uniform(10.0, 400.0), deadline});
  }
  const double cap1 = rng.uniform(100.0, 2000.0);
  const double cap2 = cap1 + rng.uniform(10.0, 2000.0);
  QualityOptScratch scratch;
  maximize_quality(0.0, jobs, cap1, paper_f(), scratch);
  const double q1 = testdata::allocation_quality(jobs, scratch.extra, paper_f());
  maximize_quality(0.0, jobs, cap2, paper_f(), scratch);
  const double q2 = testdata::allocation_quality(jobs, scratch.extra, paper_f());
  EXPECT_GE(q2, q1 - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, QualityOptRandom,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace ge::opt
