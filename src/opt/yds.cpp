#include "opt/yds.h"

#include <algorithm>

#include "power/power_model.h"
#include "util/check.h"

namespace ge::opt {
namespace {

constexpr double kTimeTol = 1e-12;

struct Critical {
  double t1 = 0.0;
  double t2 = 0.0;
  double intensity = -1.0;
};

// Finds the maximum-intensity interval.  t1 ranges over release points and
// t2 over deadline points (a classic property of the YDS optimum).  One
// deadline-sort per round into arrays, then a linear sweep per distinct
// release: O(n^2) per round overall.  A sweep starts at the first deadline
// past t1 - kTimeTol: every job passed in has deadline > release + kTimeTol,
// so an earlier job neither counts as released by t1 nor closes a candidate.
// The arrays are reused across rounds.
class CriticalScan {
 public:
  Critical find(const std::vector<YdsJob>& jobs) {
    releases_.clear();
    by_deadline_.clear();
    for (const YdsJob& job : jobs) {
      releases_.push_back(job.release);
      by_deadline_.push_back(&job);
    }
    std::sort(releases_.begin(), releases_.end());
    releases_.erase(std::unique(releases_.begin(), releases_.end()), releases_.end());
    std::sort(by_deadline_.begin(), by_deadline_.end(),
              [](const YdsJob* a, const YdsJob* b) { return a->deadline < b->deadline; });
    // Deadline-ordered arrays; closes_[i]: job i is the last sharing its
    // deadline, so a candidate interval ends there.
    const std::size_t n = by_deadline_.size();
    dl_.resize(n);
    rl_.resize(n);
    wk_.resize(n);
    closes_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      dl_[i] = by_deadline_[i]->deadline;
      rl_[i] = by_deadline_[i]->release;
      wk_[i] = by_deadline_[i]->work;
      closes_[i] = i + 1 == n || by_deadline_[i + 1]->deadline > dl_[i] + kTimeTol;
    }

    Critical best;
    std::size_t first = 0;  // first deadline past lo; lo only grows
    for (double t1 : releases_) {
      const double lo = t1 - kTimeTol;
      const double hi = t1 + kTimeTol;
      while (first < n && dl_[first] <= lo) {
        ++first;
      }
      double cumulative = 0.0;
      for (std::size_t i = first; i < n; ++i) {
        if (rl_[i] >= lo) {
          cumulative += wk_[i];
        }
        if (!closes_[i] || dl_[i] <= hi || cumulative <= 0.0) {
          continue;
        }
        const double intensity = cumulative / (dl_[i] - t1);
        if (intensity > best.intensity + 1e-12) {
          best = Critical{t1, dl_[i], intensity};
        }
      }
    }
    return best;
  }

 private:
  std::vector<double> releases_;
  std::vector<const YdsJob*> by_deadline_;
  std::vector<double> dl_, rl_, wk_;
  std::vector<char> closes_;
};

}  // namespace

double YdsSchedule::total_work() const {
  double total = 0.0;
  for (const YdsBlock& block : blocks) {
    total += block.work;
  }
  return total;
}

double YdsSchedule::max_speed() const {
  double best = 0.0;
  for (const YdsBlock& block : blocks) {
    best = std::max(best, block.speed);
  }
  return best;
}

double YdsSchedule::energy(const power::PowerModel& pm) const {
  double total = 0.0;
  for (const YdsBlock& block : blocks) {
    total += pm.power(block.speed) * block.duration;
  }
  return total;
}

YdsSchedule yds_schedule(std::span<const YdsJob> input) {
  std::vector<YdsJob> jobs;
  jobs.reserve(input.size());
  for (const YdsJob& job : input) {
    if (job.work <= 0.0) {
      continue;
    }
    GE_CHECK(job.deadline > job.release + kTimeTol,
             "YDS job needs a positive execution window");
    jobs.push_back(job);
  }

  YdsSchedule schedule;
  CriticalScan scan;
  while (!jobs.empty()) {
    const Critical crit = scan.find(jobs);
    GE_CHECK(crit.intensity > 0.0, "no critical interval found");
    const double t1 = crit.t1;
    const double t2 = crit.t2;

    YdsBlock block;
    block.duration = t2 - t1;
    block.speed = crit.intensity;

    // Remove the jobs contained in [t1, t2] and excise the interval from
    // the timeline for the survivors.
    auto collapse = [t1, t2](double t) {
      if (t <= t1 + kTimeTol) {
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
          job.release >= t1 - kTimeTol && job.deadline <= t2 + kTimeTol;
      if (contained) {
        block.work += job.work;
        ++block.jobs;
        continue;
      }
      YdsJob shrunk = job;
      shrunk.release = collapse(job.release);
      shrunk.deadline = collapse(job.deadline);
      GE_CHECK(shrunk.deadline > shrunk.release + kTimeTol,
               "collapse produced an empty window");
      remaining.push_back(shrunk);
    }
    GE_CHECK(block.jobs > 0, "critical interval contained no job");
    schedule.blocks.push_back(block);
    jobs = std::move(remaining);
  }
  return schedule;
}

double yds_min_energy(std::span<const YdsJob> jobs, const power::PowerModel& pm) {
  return yds_schedule(jobs).energy(pm);
}

}  // namespace ge::opt
