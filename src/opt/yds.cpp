#include "opt/yds.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "power/power_model.h"
#include "util/check.h"

namespace ge::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Segments = std::vector<std::pair<double, double>>;

// Disjoint sorted intervals with measure queries.  The cumulative measure
// M(t) (total availability at or before t) makes measure(avail cap [t1,t2])
// = M(t2) - M(t1), each an O(log n) lookup.
class Availability {
 public:
  Availability(double lo, double hi) {
    if (hi > lo) {
      ivs_.emplace_back(lo, hi);
    }
    rebuild();
  }

  bool empty() const { return ivs_.empty(); }

  // Total availability measure in (-inf, t].
  double cum_at(double t) const {
    const auto it = std::partition_point(
        ivs_.begin(), ivs_.end(), [t](const auto& iv) { return iv.second <= t; });
    const auto i = static_cast<std::size_t>(it - ivs_.begin());
    const double extra =
        i < ivs_.size() && ivs_[i].first < t ? t - ivs_[i].first : 0.0;
    return cum_[i] + extra;
  }

  // avail cap [t1, t2], as intervals.
  Segments intersect(double t1, double t2) const {
    Segments out;
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
    next_.clear();
    for (const auto& [a, b] : ivs_) {
      if (b <= t1 || a >= t2) {
        next_.emplace_back(a, b);
        continue;
      }
      if (a < t1) {
        next_.emplace_back(a, t1);
      }
      if (b > t2) {
        next_.emplace_back(t2, b);
      }
    }
    ivs_.swap(next_);
    rebuild();
  }

 private:
  void rebuild() {
    cum_.assign(ivs_.size() + 1, 0.0);
    for (std::size_t i = 0; i < ivs_.size(); ++i) {
      cum_[i + 1] = cum_[i] + (ivs_[i].second - ivs_[i].first);
    }
  }

  Segments ivs_;
  Segments next_;  // excise's scratch, swapped with ivs_
  std::vector<double> cum_;
};

// The critical-interval kernel.  Each round hands `on_block` the block, its
// interval [t1, t2], the jobs it contains (input indices, in input order)
// and the availability before [t1, t2] is excised.
template <typename OnBlock>
void critical_blocks(std::span<const YdsJob> jobs, OnBlock&& on_block) {
  std::vector<std::size_t> active;
  active.reserve(jobs.size());
  double lo = kInf;
  double hi = -kInf;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const YdsJob& j = jobs[i];
    if (j.work <= 0.0) {
      continue;
    }
    GE_CHECK(j.deadline > j.release, "YDS job needs a positive execution window");
    active.push_back(i);
    lo = std::min(lo, j.release);
    hi = std::max(hi, j.deadline);
  }
  if (active.empty()) {
    return;
  }
  Availability avail(lo, hi);
  // Per-round scan arrays, reused across rounds.
  std::vector<double> releases;
  std::vector<std::size_t> by_deadline;
  std::vector<double> dl, rl, wk, cd;
  std::vector<char> closes;
  std::vector<std::size_t> crit;
  std::vector<std::size_t> rest;
  releases.reserve(active.size());
  by_deadline.reserve(active.size());
  rest.reserve(active.size());

  while (!active.empty()) {
    GE_CHECK(!avail.empty(), "YDS: ran out of availability");
    // Candidate intervals: [release, deadline] pairs.  The scan reads the
    // round's jobs as arrays in deadline order, with the availability
    // measure up to each deadline precomputed.  For a fixed t1 the contained
    // work is accumulated over deadlines in ascending order, starting at the
    // first deadline past t1: earlier jobs have release < deadline <= t1, so
    // they add no work and close no candidate.
    const std::size_t n = active.size();
    releases.clear();
    by_deadline.clear();
    for (const std::size_t i : active) {
      releases.push_back(jobs[i].release);
      by_deadline.push_back(i);
    }
    std::sort(releases.begin(), releases.end());
    releases.erase(std::unique(releases.begin(), releases.end()),
                   releases.end());
    std::sort(by_deadline.begin(), by_deadline.end(),
              [&](std::size_t a, std::size_t b) {
                return jobs[a].deadline < jobs[b].deadline;
              });
    // closes[p]: no later job shares this deadline, so the candidate is
    // evaluated only once all of them are folded in.
    dl.resize(n);
    rl.resize(n);
    wk.resize(n);
    cd.resize(n);
    closes.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      const YdsJob& j = jobs[by_deadline[p]];
      dl[p] = j.deadline;
      rl[p] = j.release;
      wk[p] = j.work;
      cd[p] = avail.cum_at(j.deadline);
      closes[p] = p + 1 == n || jobs[by_deadline[p + 1]].deadline > j.deadline;
    }

    YdsBlock block;
    block.speed = -1.0;
    double best_t1 = 0.0;
    double best_t2 = 0.0;
    std::size_t first = 0;  // first deadline past t1; t1 only grows
    for (const double t1 : releases) {
      const double c1 = avail.cum_at(t1);
      while (first < n && dl[first] <= t1) {
        ++first;
      }
      double work = 0.0;
      for (std::size_t p = first; p < n; ++p) {
        if (rl[p] >= t1) {
          work += wk[p];
        }
        const double span = cd[p] - c1;
        if (!closes[p] || work <= 0.0 || span <= 0.0) {
          continue;
        }
        const double g = work / span;
        if (g > block.speed) {
          block.speed = g;
          block.duration = span;
          best_t1 = t1;
          best_t2 = dl[p];
        }
      }
    }
    GE_CHECK(block.speed > 0.0, "YDS: no feasible critical interval");

    // Critical set: active jobs with window inside [t1, t2].
    crit.clear();
    rest.clear();
    for (const std::size_t i : active) {
      const YdsJob& j = jobs[i];
      if (j.release >= best_t1 && j.deadline <= best_t2) {
        crit.push_back(i);
        block.work += j.work;
      } else {
        rest.push_back(i);
      }
    }
    block.jobs = crit.size();
    on_block(block, best_t1, best_t2, crit, avail);
    avail.excise(best_t1, best_t2);
    active.swap(rest);
  }
}

// Preemptive EDF of the critical jobs `crit` (input indices sorted by
// (deadline, index), windows inside the block) at constant speed over the
// availability segments; appends the produced slices.  YDS guarantees the
// critical work exactly fills the segments, so any floating-point residue
// below `work_eps` is dropped.
void edf_place(std::span<const YdsJob> jobs, const std::vector<std::size_t>& crit,
               double speed, const Segments& segments, double work_eps,
               std::vector<YdsSlice>* slices) {
  const auto job = [&](std::size_t i) -> const YdsJob& { return jobs[crit[i]]; };
  // Injection order by release; run order by (deadline, index).
  std::vector<std::size_t> by_release(crit.size());
  for (std::size_t i = 0; i < crit.size(); ++i) {
    by_release[i] = i;
  }
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t a, std::size_t b) {
              if (job(a).release != job(b).release) {
                return job(a).release < job(b).release;
              }
              return crit[a] < crit[b];
            });
  std::vector<double> rem(crit.size());
  for (std::size_t i = 0; i < crit.size(); ++i) {
    rem[i] = job(i).work;
  }
  // `ready` kept sorted by (deadline, index): crit is already in that order,
  // so a sorted-insert of positions keeps ties deterministic.
  std::vector<std::size_t> ready;
  std::size_t next_rel = 0;
  for (const auto& [seg_lo, seg_hi] : segments) {
    double t = seg_lo;
    while (t < seg_hi) {
      while (next_rel < by_release.size() &&
             job(by_release[next_rel]).release <= t) {
        const std::size_t j = by_release[next_rel++];
        ready.insert(std::lower_bound(ready.begin(), ready.end(), j), j);
      }
      if (ready.empty()) {
        if (next_rel >= by_release.size()) {
          return;  // everything placed; trailing segment time unused (FP)
        }
        // Idle until the next release (it lands in this segment or later).
        t = std::max(t, job(by_release[next_rel]).release);
        continue;
      }
      const std::size_t j = ready.front();
      double run_until = std::min(seg_hi, t + rem[j] / speed);
      if (next_rel < by_release.size()) {
        run_until = std::min(run_until, job(by_release[next_rel]).release);
      }
      if (run_until <= t) {
        // No representable progress: the residue is below FP resolution.
        rem[j] = 0.0;
        ready.erase(ready.begin());
        continue;
      }
      slices->push_back({t, run_until, speed, crit[j]});
      rem[j] -= speed * (run_until - t);
      t = run_until;
      if (rem[j] <= work_eps) {
        rem[j] = 0.0;
        ready.erase(ready.begin());
      }
    }
  }
}

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

YdsSchedule yds_schedule(std::span<const YdsJob> jobs) {
  YdsSchedule schedule;
  critical_blocks(jobs, [&](const YdsBlock& block, double, double,
                            std::vector<std::size_t>&, const Availability&) {
    schedule.blocks.push_back(block);
  });
  return schedule;
}

double yds_min_energy(std::span<const YdsJob> jobs, const power::PowerModel& pm) {
  return yds_schedule(jobs).energy(pm);
}

YdsPlacement yds_place(std::span<const YdsJob> jobs) {
  YdsPlacement out;
  out.speed.assign(jobs.size(), 0.0);
  double total_work = 0.0;
  for (const YdsJob& j : jobs) {
    if (j.work > 0.0) {
      total_work += j.work;
    }
  }
  const double work_eps = 1e-9 * std::max(1.0, total_work);
  critical_blocks(jobs, [&](const YdsBlock& block, double t1, double t2,
                            std::vector<std::size_t>& crit,
                            const Availability& avail) {
    std::sort(crit.begin(), crit.end(), [&](std::size_t a, std::size_t b) {
      if (jobs[a].deadline != jobs[b].deadline) {
        return jobs[a].deadline < jobs[b].deadline;
      }
      return a < b;
    });
    for (const std::size_t i : crit) {
      out.speed[i] = block.speed;
    }
    edf_place(jobs, crit, block.speed, avail.intersect(t1, t2), work_eps,
              &out.slices);
  });
  return out;
}

namespace {

// A corner of the corridor the taut string runs through: cumulative work
// `w` at time `t`.
using Corner = ProfileScratch::Corner;

double slope(const Corner& a, const Corner& b) { return (b.w - a.w) / (b.t - a.t); }

// Shortest path from an apex through a sequence of corners, each either an
// upper bound (the path passes at or below it) or a lower bound (at or
// above it), fed in strictly increasing time.  The funnel is the apex plus
// two chains: the upper corners that still bind, convex (slopes increasing
// along the chain), and the lower ones, concave.  A corner that falls
// outside the funnel's cone pulls the apex along the opposite chain, which
// fixes those segments of the path for good.  Every corner enters a chain
// once and leaves it once, so the pass is linear.  The chains and the path
// live in the caller's scratch.
class Funnel {
 public:
  Funnel(Corner start, ProfileScratch& scratch)
      : apex_(start),
        upper_{scratch.upper},
        lower_{scratch.lower},
        out_(scratch.profile) {
    upper_.v.clear();
    lower_.v.clear();
  }

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
    std::vector<Corner>& v;
    std::size_t head = 0;
    bool empty() const { return head == v.size(); }
    void reset(Corner c) {
      v.assign(1, c);
      head = 0;
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
      out_.push_back({apex_.t, to.t, speed});
    }
    apex_ = to;
  }

  Corner apex_;
  Chain upper_;
  Chain lower_;
  std::vector<SpeedSegment>& out_;
};

}  // namespace

bool agreeable_profile(std::span<const YdsJob> input, ProfileScratch& scratch) {
  std::vector<YdsJob>& jobs = scratch.jobs;
  jobs.clear();
  jobs.reserve(input.size());
  scratch.profile.clear();
  for (const YdsJob& job : input) {
    if (job.work <= 0.0) {
      continue;
    }
    GE_CHECK(job.deadline > job.release, "YDS job needs a positive execution window");
    jobs.push_back(job);
  }
  if (jobs.empty()) {
    return true;
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
      return false;
    }
  }
  // One order serves both curves, so both read the same prefix sums:
  // cum[k] is the work of the first k jobs.
  std::vector<double>& cum = scratch.cum;
  cum.assign(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    cum[i + 1] = cum[i] + jobs[i].work;
  }

  // Merge the corners in time order; where a release and a deadline share a
  // time, the upper corner goes first.  The start is the first release's
  // upper corner; the end is the last deadline's lower corner.
  Funnel funnel({jobs[0].release, 0.0}, scratch);
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
  return true;
}

}  // namespace ge::opt
