// Unit and statistical tests for the workload model.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "util/rng.h"
#include "workload/distributions.h"
#include "workload/generator.h"
#include "workload/job.h"
#include "workload/trace.h"

namespace ge::workload {
namespace {

WorkloadSpec paper_spec(double rate = 150.0, std::uint64_t seed = 1) {
  WorkloadSpec spec;
  spec.arrival_rate = rate;
  spec.seed = seed;
  return spec;
}

TEST(BoundedPareto, SamplesWithinBounds) {
  BoundedParetoDistribution dist(3.0, 130.0, 1000.0);
  util::Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const double x = dist.sample(rng);
    ASSERT_GE(x, 130.0);
    ASSERT_LE(x, 1000.0);
  }
}

TEST(BoundedPareto, PaperMeanIs192) {
  // Sec. IV-B: alpha=3, xmin=130, xmax=1000 gives mean demand ~192 units.
  BoundedParetoDistribution dist(3.0, 130.0, 1000.0);
  EXPECT_NEAR(dist.mean(), 192.1, 0.5);
}

TEST(BoundedPareto, EmpiricalMeanMatchesClosedForm) {
  BoundedParetoDistribution dist(3.0, 130.0, 1000.0);
  util::Rng rng(2);
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    sum += dist.sample(rng);
  }
  EXPECT_NEAR(sum / n, dist.mean(), 1.0);
}

class BoundedParetoSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(BoundedParetoSweep, EmpiricalMeanMatchesClosedForm) {
  const auto [alpha, xmin, xmax] = GetParam();
  BoundedParetoDistribution dist(alpha, xmin, xmax);
  util::Rng rng(3);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += dist.sample(rng);
  }
  EXPECT_NEAR(sum / n, dist.mean(), dist.mean() * 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterSweep, BoundedParetoSweep,
    ::testing::Values(std::make_tuple(1.5, 50.0, 500.0),
                      std::make_tuple(2.0, 100.0, 2000.0),
                      std::make_tuple(3.0, 130.0, 1000.0),
                      std::make_tuple(1.0, 10.0, 100.0)));

TEST(BoundedPareto, SkewedTowardsSmallValues) {
  BoundedParetoDistribution dist(3.0, 130.0, 1000.0);
  util::Rng rng(4);
  int below_mean = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (dist.sample(rng) < dist.mean()) {
      ++below_mean;
    }
  }
  EXPECT_GT(below_mean, n / 2);  // heavy tail => median < mean
}

TEST(PoissonProcess, InterarrivalMeanMatchesRate) {
  PoissonProcess proc(200.0, util::Rng(5));
  double prev = 0.0;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double t = proc.next();
    ASSERT_GT(t, prev);
    sum += t - prev;
    prev = t;
  }
  EXPECT_NEAR(sum / n, 1.0 / 200.0, 2e-4);
}

TEST(Generator, ArrivalsAreIncreasingAndJobsValid) {
  WorkloadGenerator gen(paper_spec());
  double prev = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const Job job = gen.next();
    ASSERT_GT(job.arrival, prev);
    ASSERT_TRUE(job_invariants_hold(job));
    ASSERT_NEAR(job.deadline - job.arrival, 0.150, 1e-12);
    ASSERT_GE(job.demand, 130.0);
    ASSERT_LE(job.demand, 1000.0);
    prev = job.arrival;
  }
}

TEST(Generator, SeedDeterminism) {
  WorkloadGenerator a(paper_spec(150.0, 7));
  WorkloadGenerator b(paper_spec(150.0, 7));
  for (int i = 0; i < 1000; ++i) {
    const Job ja = a.next();
    const Job jb = b.next();
    EXPECT_DOUBLE_EQ(ja.arrival, jb.arrival);
    EXPECT_DOUBLE_EQ(ja.demand, jb.demand);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  WorkloadGenerator a(paper_spec(150.0, 1));
  WorkloadGenerator b(paper_spec(150.0, 2));
  EXPECT_NE(a.next().arrival, b.next().arrival);
}

TEST(Generator, RandomDeadlineWindows) {
  WorkloadSpec spec = paper_spec();
  spec.deadline_interval = 0.150;
  spec.deadline_interval_max = 0.500;
  WorkloadGenerator gen(spec);
  double min_window = 1.0;
  double max_window = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const Job job = gen.next();
    const double window = job.window();
    ASSERT_GE(window, 0.150 - 1e-12);
    ASSERT_LE(window, 0.500 + 1e-12);
    min_window = std::min(min_window, window);
    max_window = std::max(max_window, window);
  }
  EXPECT_LT(min_window, 0.2);  // both ends of the range are exercised
  EXPECT_GT(max_window, 0.45);
}

TEST(Generator, GenerateUntilHorizon) {
  WorkloadGenerator gen(paper_spec(100.0));
  const auto jobs = gen.generate_until(10.0);
  ASSERT_FALSE(jobs.empty());
  EXPECT_LT(jobs.back().arrival, 10.0);
  // ~100 req/s for 10 s -> about 1000 jobs.
  EXPECT_NEAR(static_cast<double>(jobs.size()), 1000.0, 150.0);
}

TEST(Generator, OfferedLoadMatchesRateTimesMean) {
  // Demand released per second over a long horizon is rate x mean demand.
  const WorkloadSpec spec = paper_spec(154.0);
  WorkloadGenerator gen(spec);
  const double horizon = 200.0;
  double released = 0.0;
  for (const Job& job : gen.generate_until(horizon)) {
    released += job.demand;
  }
  const double mean =
      BoundedParetoDistribution(spec.pareto_alpha, spec.demand_min, spec.demand_max)
          .mean();
  EXPECT_NEAR(released / horizon, 154.0 * mean, 0.03 * 154.0 * mean);
}

TEST(Job, RemainingAccessors) {
  Job job;
  job.demand = 100.0;
  job.target = 80.0;
  job.executed = 30.0;
  EXPECT_DOUBLE_EQ(job.remaining_target(), 50.0);
  EXPECT_DOUBLE_EQ(job.remaining_demand(), 70.0);
  job.executed = 90.0;
  EXPECT_DOUBLE_EQ(job.remaining_target(), 0.0);
}

TEST(Job, InvariantViolationsDetected) {
  Job job;
  job.demand = 100.0;
  job.target = 100.0;
  job.deadline = 1.0;
  EXPECT_TRUE(job_invariants_hold(job));
  job.target = 150.0;  // target above demand
  EXPECT_FALSE(job_invariants_hold(job));
  job.target = 100.0;
  job.deadline = -1.0;  // deadline before arrival
  EXPECT_FALSE(job_invariants_hold(job));
}

TEST(Trace, GenerateIsDeterministic) {
  const Trace a = Trace::generate(paper_spec(150.0, 11), 5.0);
  const Trace b = Trace::generate(paper_spec(150.0, 11), 5.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs()[i].arrival, b.jobs()[i].arrival);
    EXPECT_DOUBLE_EQ(a.jobs()[i].demand, b.jobs()[i].demand);
  }
}

TEST(Trace, CsvRoundTripInMemory) {
  const Trace original = Trace::generate(paper_spec(), 2.0);
  const Trace restored = Trace::from_csv(original.to_csv());
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored.jobs()[i].id, original.jobs()[i].id);
    EXPECT_NEAR(restored.jobs()[i].arrival, original.jobs()[i].arrival, 1e-8);
    EXPECT_NEAR(restored.jobs()[i].deadline, original.jobs()[i].deadline, 1e-8);
    EXPECT_NEAR(restored.jobs()[i].demand, original.jobs()[i].demand, 1e-8);
  }
}

TEST(Trace, CsvRoundTripOnDisk) {
  const Trace original = Trace::generate(paper_spec(), 1.0);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ge_trace_test.csv").string();
  original.save_csv(path);
  const Trace restored = Trace::load_csv(path);
  EXPECT_EQ(restored.size(), original.size());
  std::remove(path.c_str());
}

TEST(Trace, TotalDemandAndHorizon) {
  std::vector<Job> jobs(2);
  jobs[0] = Job{1, 0.5, 0.65, 100.0, 100.0, 0.0, kUnassigned, false};
  jobs[1] = Job{2, 1.5, 1.65, 200.0, 200.0, 0.0, kUnassigned, false};
  const Trace trace(jobs);
  EXPECT_DOUBLE_EQ(trace.total_demand(), 300.0);
  EXPECT_DOUBLE_EQ(trace.horizon(), 1.5);
}

TEST(Trace, RejectsMalformedCsv) {
  EXPECT_DEATH((void)Trace::from_csv("bogus header\n1,2,3,4\n"), "header");
}

TEST(Trace, RejectsUnsortedJobs) {
  std::vector<Job> jobs(2);
  jobs[0] = Job{1, 2.0, 2.15, 100.0, 100.0, 0.0, kUnassigned, false};
  jobs[1] = Job{2, 1.0, 1.15, 100.0, 100.0, 0.0, kUnassigned, false};
  EXPECT_DEATH(Trace{jobs}, "sorted");
}

}  // namespace
}  // namespace ge::workload

// -- bursty (on-off modulated) arrivals -------------------------------------

#include "util/stats.h"

namespace ge::workload {
namespace {

TEST(OnOffPoisson, MeanRatePreserved) {
  OnOffPoissonProcess proc(150.0, 3.0, 0.2, 1.0, util::Rng(21));
  double t = 0.0;
  const int n = 300000;
  for (int i = 0; i < n; ++i) {
    t = proc.next();
  }
  EXPECT_NEAR(n / t, 150.0, 5.0);
}

TEST(OnOffPoisson, RatesDerivedFromParameters) {
  // Dwells of 100 s (burst) and 300 s (calm) leave almost every 1 s bin in
  // one state: burst bins count ~200 arrivals, calm bins ~66.7.
  OnOffPoissonProcess proc(100.0, 2.0, 0.25, 100.0, util::Rng(22));
  std::vector<int> bins(20000, 0);
  for (double t = proc.next(); t < static_cast<double>(bins.size()); t = proc.next()) {
    ++bins[static_cast<std::size_t>(t)];
  }
  double burst = 0.0, calm = 0.0;
  int burst_bins = 0, calm_bins = 0;
  for (int count : bins) {
    if (count > 133) {
      burst += count;
      ++burst_bins;
    } else {
      calm += count;
      ++calm_bins;
    }
  }
  EXPECT_NEAR(burst / burst_bins, 200.0, 4.0);
  // calm = 100 * (1 - 0.25*2) / 0.75 = 66.67.
  EXPECT_NEAR(calm / calm_bins, 100.0 * 0.5 / 0.75, 1.5);
}

TEST(OnOffPoisson, ArrivalsStrictlyIncreasing) {
  OnOffPoissonProcess proc(200.0, 4.0, 0.1, 0.5, util::Rng(23));
  double prev = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double t = proc.next();
    ASSERT_GT(t, prev);
    prev = t;
  }
}

TEST(OnOffPoisson, BurstierThanPoisson) {
  // Count arrivals in 100 ms windows; the on-off process must have a
  // higher window-count variance than a Poisson process of the same mean.
  auto window_variance = [](auto&& next_arrival, double horizon) {
    std::vector<int> counts(static_cast<std::size_t>(horizon / 0.1), 0);
    for (;;) {
      const double t = next_arrival();
      if (t >= horizon) {
        break;
      }
      counts[static_cast<std::size_t>(t / 0.1)]++;
    }
    util::RunningStats stats;
    for (int c : counts) {
      stats.add(c);
    }
    return stats.variance();
  };
  PoissonProcess plain(150.0, util::Rng(24));
  OnOffPoissonProcess bursty(150.0, 3.0, 0.2, 1.0, util::Rng(24));
  const double var_plain = window_variance([&] { return plain.next(); }, 200.0);
  const double var_bursty = window_variance([&] { return bursty.next(); }, 200.0);
  EXPECT_GT(var_bursty, var_plain * 1.5);
}

TEST(OnOffPoisson, InvalidParametersDie) {
  EXPECT_DEATH({ OnOffPoissonProcess p(100.0, 0.5, 0.2, 1.0, util::Rng(1)); }, ">= 1");
  EXPECT_DEATH({ OnOffPoissonProcess p(100.0, 6.0, 0.2, 1.0, util::Rng(1)); }, "calm");
}

TEST(Generator, BurstySpecProducesValidJobs) {
  WorkloadSpec spec;
  spec.arrival_rate = 150.0;
  spec.burst_peak_to_mean = 2.5;
  spec.seed = 31;
  WorkloadGenerator gen(spec);
  double prev = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const Job job = gen.next();
    ASSERT_GT(job.arrival, prev);
    ASSERT_TRUE(job_invariants_hold(job));
    prev = job.arrival;
  }
}

TEST(Generator, BurstyDeterministicPerSeed) {
  WorkloadSpec spec;
  spec.arrival_rate = 150.0;
  spec.burst_peak_to_mean = 2.5;
  spec.seed = 33;
  WorkloadGenerator a(spec);
  WorkloadGenerator b(spec);
  for (int i = 0; i < 500; ++i) {
    EXPECT_DOUBLE_EQ(a.next().arrival, b.next().arrival);
  }
}

}  // namespace
}  // namespace ge::workload
