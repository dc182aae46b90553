// Tests for the full preemptive YDS scheduler and the offline reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "agreeable_instances.h"
#include "exp/config.h"
#include "exp/offline_reference.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "opt/energy_opt.h"
#include "opt/yds.h"
#include "power/power_model.h"
#include "util/check.h"
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
    ExecutionPlan plan;
    plan_min_energy(0.0, plan_jobs, 1e12, plan);
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

// ---- exactness of the critical-interval kernel -----------------------------
//
// Two oracles, on the same instance families:
//   * reference_yds_blocks, the textbook round loop that collapses the
//     timeline (times within 1e-12 count as equal).  yds_schedule must give
//     its energy under quadratic and cubic curves, its total work and its
//     max speed within 1e-9 relative.
//   * reference_yds_place, the plain real-time placement: every (release,
//     deadline) pair evaluated through two linear availability lookups.
//     yds_place must place every slice bit for bit.

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

// Reference placement: jobs carry their input index.
struct RefJob {
  double release = 0.0;
  double deadline = 0.0;
  double work = 0.0;
  std::size_t idx = 0;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

// Availability as the reference scan saw it: linear cum_at lookups.
class RefAvailability {
 public:
  RefAvailability(double lo, double hi) {
    if (hi > lo) {
      ivs_.emplace_back(lo, hi);
    }
    rebuild();
  }

  bool empty() const { return ivs_.empty(); }

  double measure_between(double t1, double t2) const {
    if (t2 <= t1) {
      return 0.0;
    }
    return cum_at(t2) - cum_at(t1);
  }

  // avail cap [t1, t2], as intervals.
  std::vector<std::pair<double, double>> intersect(double t1, double t2) const {
    std::vector<std::pair<double, double>> out;
    for (const auto& [a, b] : ivs_) {
      const double lo = std::max(a, t1);
      const double hi = std::min(b, t2);
      if (hi > lo) {
        out.emplace_back(lo, hi);
      }
    }
    return out;
  }

  void excise(double t1, double t2) {
    std::vector<std::pair<double, double>> next;
    for (const auto& [a, b] : ivs_) {
      if (b <= t1 || a >= t2) {
        next.emplace_back(a, b);
        continue;
      }
      if (a < t1) {
        next.emplace_back(a, t1);
      }
      if (b > t2) {
        next.emplace_back(t2, b);
      }
    }
    ivs_ = std::move(next);
    rebuild();
  }

 private:
  void rebuild() {
    cum_.assign(ivs_.size() + 1, 0.0);
    for (std::size_t i = 0; i < ivs_.size(); ++i) {
      cum_[i + 1] = cum_[i] + (ivs_[i].second - ivs_[i].first);
    }
  }

  // Total availability measure in (-inf, t].
  double cum_at(double t) const {
    std::size_t i = 0;
    double extra = 0.0;
    while (i < ivs_.size() && ivs_[i].second <= t) {
      ++i;
    }
    if (i < ivs_.size() && ivs_[i].first < t) {
      extra = t - ivs_[i].first;
    }
    return cum_[i] + extra;
  }

  std::vector<std::pair<double, double>> ivs_;
  std::vector<double> cum_;
};

// Preemptive EDF of `crit` (window subseteq [t1,t2], sorted by (deadline,
// idx)) at constant speed over the availability segments; appends the
// produced slices.  YDS guarantees the critical work exactly fills the
// segments, so any floating-point residue below `work_eps` is dropped.
void reference_edf_place(const std::vector<RefJob>& crit, double speed,
               const std::vector<std::pair<double, double>>& segments,
               double work_eps, std::vector<YdsSlice>* slices) {
  // Injection order by release; run order by (deadline, idx).
  std::vector<std::size_t> by_release(crit.size());
  for (std::size_t i = 0; i < crit.size(); ++i) {
    by_release[i] = i;
  }
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t a, std::size_t b) {
              if (crit[a].release != crit[b].release) {
                return crit[a].release < crit[b].release;
              }
              return crit[a].idx < crit[b].idx;
            });
  std::vector<double> rem(crit.size());
  for (std::size_t i = 0; i < crit.size(); ++i) {
    rem[i] = crit[i].work;
  }
  // `ready` kept sorted by (deadline, idx): crit is already in that order,
  // so a sorted-insert of positions keeps ties deterministic.
  std::vector<std::size_t> ready;
  std::size_t next_rel = 0;
  for (std::size_t si = 0; si < segments.size(); ++si) {
    double t = segments[si].first;
    while (t < segments[si].second) {
      while (next_rel < by_release.size() &&
             crit[by_release[next_rel]].release <= t) {
        const std::size_t j = by_release[next_rel++];
        ready.insert(std::lower_bound(ready.begin(), ready.end(), j), j);
      }
      if (ready.empty()) {
        if (next_rel >= by_release.size()) {
          return;  // everything placed; trailing segment time unused (FP)
        }
        // Idle until the next release (it lands in this segment or later).
        t = std::max(t, crit[by_release[next_rel]].release);
        continue;
      }
      const std::size_t j = ready.front();
      double run_until = std::min(segments[si].second, t + rem[j] / speed);
      if (next_rel < by_release.size()) {
        run_until = std::min(run_until, crit[by_release[next_rel]].release);
      }
      if (run_until <= t) {
        // No representable progress: the residue is below FP resolution.
        rem[j] = 0.0;
        ready.erase(ready.begin());
        continue;
      }
      slices->push_back({t, run_until, speed, crit[j].idx});
      rem[j] -= speed * (run_until - t);
      t = run_until;
      if (rem[j] <= work_eps) {
        rem[j] = 0.0;
        ready.erase(ready.begin());
      }
    }
  }
}

// Critical-interval YDS with real-time placement.  Returns per-job block
// speeds and the placed slices.
YdsPlacement reference_yds_place(const std::vector<YdsJob>& input) {
  YdsPlacement out;
  std::vector<RefJob> jobs;
  for (const YdsJob& j : input) {
    jobs.push_back({j.release, j.deadline, j.work, jobs.size()});
  }
  out.speed.assign(jobs.size(), 0.0);
  std::vector<RefJob> active;
  double lo = kInf;
  double hi = -kInf;
  double total_work = 0.0;
  for (const RefJob& j : jobs) {
    if (j.work <= 0.0) {
      continue;
    }
    GE_CHECK(j.deadline > j.release, "reclaim: job window must be non-empty");
    active.push_back(j);
    lo = std::min(lo, j.release);
    hi = std::max(hi, j.deadline);
    total_work += j.work;
  }
  if (active.empty()) {
    return out;
  }
  const double work_eps = 1e-9 * std::max(1.0, total_work);
  RefAvailability avail(lo, hi);

  while (!active.empty()) {
    GE_CHECK(!avail.empty(), "reclaim: ran out of availability");
    // Candidate intervals: [release, deadline] pairs.  For a fixed t1 the
    // contained work is accumulated over deadlines in ascending order.
    std::vector<double> releases;
    releases.reserve(active.size());
    for (const RefJob& j : active) {
      releases.push_back(j.release);
    }
    std::sort(releases.begin(), releases.end());
    releases.erase(std::unique(releases.begin(), releases.end()),
                   releases.end());
    std::vector<std::size_t> by_deadline(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      by_deadline[i] = i;
    }
    std::sort(by_deadline.begin(), by_deadline.end(),
              [&](std::size_t a, std::size_t b) {
                return active[a].deadline < active[b].deadline;
              });

    double best_g = -1.0;
    double best_t1 = 0.0;
    double best_t2 = 0.0;
    for (const double t1 : releases) {
      double work = 0.0;
      for (std::size_t p = 0; p < by_deadline.size(); ++p) {
        const RefJob& j = active[by_deadline[p]];
        if (j.release >= t1) {
          work += j.work;
        }
        const double t2 = j.deadline;
        // Later jobs may share this deadline; only evaluate the candidate
        // once all of them are folded in.
        if (p + 1 < by_deadline.size() &&
            active[by_deadline[p + 1]].deadline <= t2) {
          continue;
        }
        if (work <= 0.0) {
          continue;
        }
        const double span = avail.measure_between(t1, t2);
        if (span <= 0.0) {
          continue;
        }
        const double g = work / span;
        if (g > best_g) {
          best_g = g;
          best_t1 = t1;
          best_t2 = t2;
        }
      }
    }
    GE_CHECK(best_g > 0.0, "reclaim: no feasible critical interval");

    // Critical set: active jobs with window inside [t1, t2], EDF order.
    std::vector<RefJob> crit;
    std::vector<RefJob> rest;
    for (const RefJob& j : active) {
      if (j.release >= best_t1 && j.deadline <= best_t2) {
        crit.push_back(j);
      } else {
        rest.push_back(j);
      }
    }
    std::sort(crit.begin(), crit.end(), [](const RefJob& a, const RefJob& b) {
      if (a.deadline != b.deadline) {
        return a.deadline < b.deadline;
      }
      return a.idx < b.idx;
    });
    for (const RefJob& j : crit) {
      out.speed[j.idx] = best_g;
    }
    reference_edf_place(crit, best_g, avail.intersect(best_t1, best_t2),
                        work_eps, &out.slices);
    avail.excise(best_t1, best_t2);
    active = std::move(rest);
  }
  return out;
}

void expect_kernel_matches_references(const std::vector<YdsJob>& jobs,
                                      const std::string& label,
                                      bool tiny_windows = false) {
  const YdsSchedule expected{reference_yds_blocks(jobs)};
  const YdsSchedule actual = yds_schedule(jobs);
  const power::PowerModel cubic(2.0, 3.0, 1000.0);
  for (const power::PowerModel* model : {&pm(), &cubic}) {
    const double energy = expected.energy(*model);
    EXPECT_NEAR(actual.energy(*model), energy, 1e-9 * std::max(1.0, energy))
        << label << " beta " << model->beta();
  }
  const double work = expected.total_work();
  EXPECT_NEAR(actual.total_work(), work, 1e-9 * std::max(1.0, work)) << label;
  if (!tiny_windows) {
    EXPECT_NEAR(actual.max_speed(), expected.max_speed(),
                1e-9 * std::max(1.0, expected.max_speed()))
        << label;
  } else {
    // The reference's 1e-12 tolerance merges the tiny windows with their
    // neighbours and under-reports the max speed; the kernel must run at
    // least as fast as any single job needs.
    for (const YdsJob& job : jobs) {
      EXPECT_GE(actual.max_speed(), job.work / (job.deadline - job.release))
          << label;
    }
  }

  const YdsPlacement placed = reference_yds_place(jobs);
  const YdsPlacement actual_placed = yds_place(jobs);
  ASSERT_EQ(actual_placed.speed.size(), placed.speed.size()) << label;
  for (std::size_t i = 0; i < placed.speed.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual_placed.speed[i]),
              std::bit_cast<std::uint64_t>(placed.speed[i]))
        << label << " job " << i;
  }
  ASSERT_EQ(actual_placed.slices.size(), placed.slices.size()) << label;
  for (std::size_t i = 0; i < placed.slices.size(); ++i) {
    const YdsSlice& a = actual_placed.slices[i];
    const YdsSlice& e = placed.slices[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.t0), std::bit_cast<std::uint64_t>(e.t0))
        << label << " slice " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.t1), std::bit_cast<std::uint64_t>(e.t1))
        << label << " slice " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.speed),
              std::bit_cast<std::uint64_t>(e.speed))
        << label << " slice " << i;
    EXPECT_EQ(a.job, e.job) << label << " slice " << i;
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
    expect_kernel_matches_references(jobs, "random trial " + std::to_string(trial));
  }
}

// Integer grids force exact intensity ties (the first maximum in (t1, t2)
// order wins), shared deadlines (only the last of a group closes a
// candidate) and shared releases (one row per distinct release).
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
    expect_kernel_matches_references(jobs, "grid trial " + std::to_string(trial));
  }
}

// Windows barely wider than the reference's 1e-12 time tolerance, released
// just before another job's release.
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
    expect_kernel_matches_references(
        jobs, "tolerance trial " + std::to_string(trial), /*tiny_windows=*/true);
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
  expect_kernel_matches_references(jobs, "pooled");
}

TEST(ReclaimScanExactness, RandomCoresMatchTheReferenceBitwise) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform(0.0, 150.0));
    std::vector<YdsJob> jobs;
    for (int i = 0; i < n; ++i) {
      const double r = rng.uniform(0.0, 5.0);
      jobs.push_back({r, r + rng.uniform(0.005, 0.6),
                      i % 9 == 8 ? 0.0 : rng.uniform(1.0, 300.0)});
    }
    expect_kernel_matches_references(jobs, "random core " + std::to_string(trial));
  }
}

// Integer grids force exact intensity ties (the first maximum in (t1, t2)
// order must win), shared deadlines and shared releases, and excisions that
// leave many availability segments behind.
TEST(ReclaimScanExactness, IntegerGridTiesMatchTheReferenceBitwise) {
  util::Rng rng(99);
  for (int trial = 0; trial < 80; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform(0.0, 50.0));
    const double grid = trial % 2 == 0 ? 1.0 : 0.125;
    std::vector<YdsJob> jobs;
    for (int i = 0; i < n; ++i) {
      const double r = grid * std::floor(rng.uniform(0.0, 10.0));
      jobs.push_back({r, r + grid * (1.0 + std::floor(rng.uniform(0.0, 4.0))),
                      std::floor(rng.uniform(1.0, 5.0))});
    }
    expect_kernel_matches_references(jobs, "core grid " + std::to_string(trial));
  }
}

// ---- the agreeable (taut-string) profile -----------------------------------
//
// Oracle: yds_schedule.  On agreeable instances agreeable_profile must give
// the YDS energy under every convex power curve, within 1e-9 relative.  The
// random suites run every trial on one scratch, as a scheduler does, so a
// stale chain or prefix sum from a larger instance would show.

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
                                const std::string& label, ProfileScratch& scratch) {
  ASSERT_TRUE(agreeable_profile(jobs, scratch)) << label;
  const std::vector<SpeedSegment>& profile = scratch.profile;
  double work = 0.0;
  for (const YdsJob& job : jobs) {
    work += job.work;
  }
  EXPECT_NEAR(profile_work(profile), work, 1e-9 * std::max(1.0, work)) << label;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const SpeedSegment& seg = profile[i];
    EXPECT_LT(seg.t0, seg.t1) << label << " segment " << i;
    EXPECT_GT(seg.speed, 0.0) << label << " segment " << i;
    if (i > 0) {
      EXPECT_LE(profile[i - 1].t1, seg.t0) << label << " segment " << i;
    }
  }
  // Quadratic and cubic power curves: the taut string minimises both.
  const power::PowerModel cubic(2.0, 3.0, 1000.0);
  for (const power::PowerModel* model : {&pm(), &cubic}) {
    const double expected = yds_min_energy(jobs, *model);
    EXPECT_NEAR(profile_energy(profile, *model), expected,
                1e-9 * std::max(1.0, expected))
        << label << " beta " << model->beta();
  }
}

TEST(AgreeableProfile, EmptyAndZeroWorkInstancesGiveAnEmptyProfile) {
  ProfileScratch scratch;
  const std::vector<YdsJob> busy{{0.0, 1.0, 5.0}};
  ASSERT_TRUE(agreeable_profile(busy, scratch));
  ASSERT_TRUE(agreeable_profile({}, scratch));
  EXPECT_TRUE(scratch.profile.empty());
  const std::vector<YdsJob> idle{{0.0, 1.0, 0.0}, {0.5, 0.6, 0.0}};
  ASSERT_TRUE(agreeable_profile(busy, scratch));
  ASSERT_TRUE(agreeable_profile(idle, scratch));
  EXPECT_TRUE(scratch.profile.empty());
}

TEST(AgreeableProfile, SingleJobRunsAtItsIntensity) {
  const std::vector<YdsJob> jobs{{0.25, 0.75, 1000.0}};
  ProfileScratch scratch;
  ASSERT_TRUE(agreeable_profile(jobs, scratch));
  const std::vector<SpeedSegment>& profile = scratch.profile;
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_EQ(profile[0].t0, 0.25);
  EXPECT_EQ(profile[0].t1, 0.75);
  EXPECT_EQ(profile[0].speed, 2000.0);
}

// A burst released mid-window of a long job: the string climbs to the
// burst's release, runs it at 400/s, then spreads the rest.  The same
// instance as LateReleaseForcesFasterBlock, in real time.
TEST(AgreeableProfile, LateReleaseForcesFasterSegment) {
  const std::vector<YdsJob> jobs{{0.0, 2.0, 100.0}, {1.5, 2.0, 200.0}};
  ProfileScratch scratch;
  ASSERT_TRUE(agreeable_profile(jobs, scratch));
  const std::vector<SpeedSegment>& profile = scratch.profile;
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_NEAR(profile[0].speed, 100.0 / 1.5, 1e-9);
  EXPECT_EQ(profile[0].t1, 1.5);
  EXPECT_NEAR(profile[1].speed, 400.0, 1e-9);
}

// A later release with an earlier deadline is not agreeable, and leaves no
// profile of an earlier call behind.  Zero-work jobs do not count: they are
// dropped before the check.
TEST(AgreeableProfile, NotAgreeableReturnsNothing) {
  ProfileScratch scratch;
  const std::vector<YdsJob> nested{{0.0, 10.0, 1.0}, {5.0, 6.0, 5.0}};
  ASSERT_TRUE(agreeable_profile(std::span(nested).first(1), scratch));
  EXPECT_FALSE(agreeable_profile(nested, scratch));
  EXPECT_TRUE(scratch.profile.empty());
  const std::vector<YdsJob> idle_nested{{0.0, 10.0, 1.0}, {5.0, 6.0, 0.0}};
  EXPECT_TRUE(agreeable_profile(idle_nested, scratch));
}

TEST(AgreeableProfile, RejectsEmptyWindow) {
  const std::vector<YdsJob> jobs{{1.0, 1.0, 10.0}};
  ProfileScratch scratch;
  EXPECT_DEATH((void)agreeable_profile(jobs, scratch), "window");
}

// Shared releases, shared deadlines, idle gaps, bursts; the first five
// trials are single jobs, and every seventh job carries no work.
TEST(AgreeableProfile, MatchesYdsOnRandomAgreeableInstances) {
  util::Rng rng(1605);
  ProfileScratch scratch;
  for (int trial = 0; trial < 100; ++trial) {
    const auto shape = testdata::kAgreeableShapes[trial % 5];
    const std::size_t n = trial < 5 ? 1 : 2 + rng.uniform_index(200);
    expect_profile_matches_yds(testdata::agreeable_instance(rng, shape, n),
                               "trial " + std::to_string(trial) + " shape " +
                                   std::to_string(trial % 5),
                               scratch);
  }
}

// Integer grids make many corners collinear and many releases, deadlines
// and cumulative sums tie exactly.
TEST(AgreeableProfile, MatchesYdsOnIntegerGrids) {
  util::Rng rng(88);
  ProfileScratch scratch;
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
    expect_profile_matches_yds(jobs, "grid trial " + std::to_string(trial), scratch);
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
