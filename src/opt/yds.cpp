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

namespace {

// A corner of the corridor the taut string runs through: cumulative work
// `w` at time `t`.
struct Corner {
  double t = 0.0;
  double w = 0.0;
};

double slope(const Corner& a, const Corner& b) { return (b.w - a.w) / (b.t - a.t); }

// Shortest path from an apex through a sequence of corners, each either an
// upper bound (the path passes at or below it) or a lower bound (at or
// above it), fed in strictly increasing time.  The funnel is the apex plus
// two chains: the upper corners that still bind, convex (slopes increasing
// along the chain), and the lower ones, concave.  A corner that falls
// outside the funnel's cone pulls the apex along the opposite chain, which
// fixes those segments of the path for good.  Every corner enters a chain
// once and leaves it once, so the pass is linear.
class Funnel {
 public:
  Funnel(Corner start, std::vector<SpeedSegment>* out) : apex_(start), out_(out) {}

  void add_upper(Corner c) { add(c, upper_, lower_, /*upper=*/true); }
  void add_lower(Corner c) { add(c, lower_, upper_, /*upper=*/false); }

  // Ends the path at `end`, a corner that is both bounds at once.
  void finish(Corner end) {
    if (!advance(end, lower_, /*upper=*/true)) {
      advance(end, upper_, /*upper=*/false);
    }
    emit(end);
  }

 private:
  // A chain is a vector consumed from `head`.
  struct Chain {
    std::vector<Corner> v;
    std::size_t head = 0;
    bool empty() const { return head == v.size(); }
    void reset(Corner c) {
      v.clear();
      head = 0;
      v.push_back(c);
    }
  };

  // True when the path from the apex must bend around the first corner of
  // `other` to reach `c`: `c` lies outside the cone on that chain's side.
  bool outside(const Corner& c, const Chain& other, bool upper) const {
    if (other.empty()) {
      return false;
    }
    const double to_c = slope(apex_, c);
    const double to_other = slope(apex_, other.v[other.head]);
    return upper ? to_c < to_other : to_c > to_other;
  }

  // Moves the apex along `other` while `c` lies outside the cone; returns
  // whether it moved.
  bool advance(const Corner& c, Chain& other, bool upper) {
    bool moved = false;
    while (outside(c, other, upper)) {
      emit(other.v[other.head++]);
      moved = true;
    }
    return moved;
  }

  void add(Corner c, Chain& own, Chain& other, bool upper) {
    if (advance(c, other, upper)) {
      // The path now leaves the apex below every old upper corner (or above
      // every old lower one): they no longer bind.
      own.reset(c);
      return;
    }
    // Drop the corners of `own` that `c` makes redundant, keeping the chain
    // convex (upper) or concave (lower).
    while (!own.empty()) {
      const Corner& last = own.v.back();
      const Corner& prev =
          own.v.size() - own.head >= 2 ? own.v[own.v.size() - 2] : apex_;
      const double to_c = slope(prev, c);
      const double to_last = slope(prev, last);
      if (upper ? to_c > to_last : to_c < to_last) {
        break;
      }
      own.v.pop_back();
    }
    if (own.empty()) {
      own.reset(c);
    } else {
      own.v.push_back(c);
    }
  }

  void emit(const Corner& to) {
    const double speed = slope(apex_, to);
    if (speed > 0.0) {
      out_->push_back({apex_.t, to.t, speed});
    }
    apex_ = to;
  }

  Corner apex_;
  Chain upper_;
  Chain lower_;
  std::vector<SpeedSegment>* out_;
};

}  // namespace

std::optional<std::vector<SpeedSegment>> agreeable_profile(
    std::span<const YdsJob> input) {
  std::vector<YdsJob> jobs;
  jobs.reserve(input.size());
  for (const YdsJob& job : input) {
    if (job.work <= 0.0) {
      continue;
    }
    GE_CHECK(job.deadline > job.release, "YDS job needs a positive execution window");
    jobs.push_back(job);
  }
  std::vector<SpeedSegment> profile;
  if (jobs.empty()) {
    return profile;
  }
  const auto earlier = [](const YdsJob& a, const YdsJob& b) {
    return a.release != b.release ? a.release < b.release : a.deadline < b.deadline;
  };
  if (!std::is_sorted(jobs.begin(), jobs.end(), earlier)) {
    std::stable_sort(jobs.begin(), jobs.end(), earlier);
  }
  const std::size_t n = jobs.size();
  for (std::size_t i = 1; i < n; ++i) {
    if (jobs[i].deadline < jobs[i - 1].deadline) {
      return std::nullopt;
    }
  }
  // One order serves both curves, so both read the same prefix sums:
  // cum[k] is the work of the first k jobs.
  std::vector<double> cum(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    cum[i + 1] = cum[i] + jobs[i].work;
  }

  // Merge the corners in time order; where a release and a deadline share a
  // time, the upper corner goes first.  The start is the first release's
  // upper corner; the end is the last deadline's lower corner.
  Funnel funnel({jobs[0].release, 0.0}, &profile);
  std::size_t r = 1;  // next job whose release may open an upper corner
  std::size_t d = 0;  // next job whose deadline may close a lower corner
  while (r < n && jobs[r].release == jobs[0].release) {
    ++r;
  }
  while (true) {
    const double t = r < n ? std::min(jobs[r].release, jobs[d].deadline)
                           : jobs[d].deadline;
    if (r < n && jobs[r].release == t) {
      funnel.add_upper({t, cum[r]});
      while (r < n && jobs[r].release == t) {
        ++r;
      }
    }
    if (jobs[d].deadline != t) {
      continue;
    }
    while (d < n && jobs[d].deadline == t) {
      ++d;
    }
    if (d == n) {
      funnel.finish({t, cum[n]});
      break;
    }
    funnel.add_lower({t, cum[d]});
  }
  return profile;
}

}  // namespace ge::opt
