#include "core/speed_scaling.h"

#include <algorithm>
#include <numbers>

#include "core/plan_rectifier.h"
#include "util/check.h"

namespace ge::sched {
namespace {

// Matches the settle tolerance of scheduler.cpp / the runner's completion
// tolerance: a job within kDoneEps units of its target counts as done.
constexpr double kDoneEps = 1e-6;
constexpr double kTimeEps = 1e-9;
// Slack allowed between a job's profile finish time and its deadline before
// the finish-by-deadline repair replaces the profile (absorbs fp drift on
// OA plans, which finish critical jobs exactly at their deadlines).
constexpr double kSnapEps = 1e-7;
// Plan pieces shorter than this are dropped (the lost work is far below
// kDoneEps at any reachable speed).
constexpr double kSliverEps = 1e-12;
constexpr double kE = std::numbers::e;
// BKP history records are pruned once `now` is this many deadline windows
// past the record's release (they can no longer dominate the estimator in
// any window the surviving deadlines anchor).
constexpr double kBkpHistoryFactor = 8.0;

}  // namespace

const char* to_string(SpeedScalingPolicy policy) noexcept {
  switch (policy) {
    case SpeedScalingPolicy::kOa:
      return "OA";
    case SpeedScalingPolicy::kQoa:
      return "qOA";
    case SpeedScalingPolicy::kAvr:
      return "AVR";
    case SpeedScalingPolicy::kBkp:
      return "BKP";
  }
  return "unknown";
}

SpeedScalingScheduler::SpeedScalingScheduler(SchedulerEnv env,
                                             SpeedScalingOptions options,
                                             std::string name)
    : Scheduler(env, std::move(name)),
      options_(options),
      core_cap_watts_(env.server->power_budget() /
                      static_cast<double>(env.server->core_count())) {
  GE_CHECK(options_.q > 0.0, "speed-scaling q must be positive");
  cores_.resize(env_.server->core_count());
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    cores_[i].cap_speed =
        env_.server->core(i).power_model().speed_for_power(core_cap_watts_);
  }
}

int SpeedScalingScheduler::pick_core() const {
  int best = -1;
  double best_load = 0.0;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (!env_.server->core(i).online()) {
      continue;
    }
    double load = 0.0;
    for (const workload::Job* job : cores_[i].active) {
      load += job->remaining_target();
    }
    if (best < 0 || load < best_load) {
      best = static_cast<int>(i);
      best_load = load;
    }
  }
  return best;
}

void SpeedScalingScheduler::forget(workload::Job* job) {
  if (job->core == workload::kUnassigned) {
    return;
  }
  std::erase(cores_[static_cast<std::size_t>(job->core)].active, job);
}

void SpeedScalingScheduler::on_job_arrival(workload::Job* job) {
  const double t = now();
  // Bring execution state up to date so the load comparison sees current
  // remaining work (advance_to credits work without firing callbacks).
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (env_.server->core(i).online()) {
      env_.server->core(i).advance_to(t);
    }
  }
  const int core_id = pick_core();
  if (core_id < 0) {
    // Every core is offline: the job settles at its deadline with no work.
    return;
  }
  job->target = job->demand;  // never cut
  job->core = core_id;
  CoreState& state = cores_[static_cast<std::size_t>(core_id)];
  env_.server->core(static_cast<std::size_t>(core_id)).queue().push_back(job);
  state.active.push_back(job);
  if (options_.policy == SpeedScalingPolicy::kAvr && job->demand > 0.0) {
    const double window = std::max(job->window(), kTimeEps);
    state.densities.push_back(AvrEntry{job->deadline, job->demand / window});
  } else if (options_.policy == SpeedScalingPolicy::kBkp) {
    state.history.push_back(BkpRecord{job->arrival, job->deadline, job->demand});
  }
  rebuild(static_cast<std::size_t>(core_id));
}

void SpeedScalingScheduler::on_job_finished(workload::Job* job) {
  // Cores raise this at *every* completed plan segment; a job may span
  // several segments of the piecewise profile, so only settle once it has
  // received its full target.
  if (job->settled) {
    return;
  }
  if (job->executed >= job->target - kDoneEps) {
    forget(job);
    settle(job);
  }
}

void SpeedScalingScheduler::on_deadline(workload::Job* job) {
  if (job->settled) {
    return;
  }
  const int core_id = job->core;
  forget(job);
  settle(job);
  if (core_id != workload::kUnassigned &&
      env_.server->core(static_cast<std::size_t>(core_id)).online()) {
    rebuild(static_cast<std::size_t>(core_id));
  }
}

void SpeedScalingScheduler::finish() {
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    CoreState& state = cores_[i];
    if (state.refresh_event != sim::kInvalidEventId) {
      env_.sim->cancel(state.refresh_event);
      state.refresh_event = sim::kInvalidEventId;
    }
    const std::vector<workload::Job*> active = state.active;  // settle mutates
    for (workload::Job* job : active) {
      if (!job->settled) {
        settle(job);
      }
    }
    state.active.clear();
    state.densities.clear();
    state.history.clear();
  }
}

double SpeedScalingScheduler::bkp_speed(double t0, const CoreState& state) const {
  // s(t) = e * v(t),  v(t) = max_{t2 > t} W(t1, t2) / (e (t2 - t)),
  // t1 = e t - (e-1) t2; W = original work released in [t1, t] with
  // deadline <= t2.  The e's cancel: s(t) = max W / (t2 - t).  Candidate
  // t2's are the recorded deadlines (W and the denominator only change
  // when t2 crosses one).
  double best = 0.0;
  for (const BkpRecord& anchor : state.history) {
    const double t2 = anchor.deadline;
    if (t2 <= t0 + kTimeEps) {
      continue;
    }
    const double t1 = kE * t0 - (kE - 1.0) * t2;
    double work = 0.0;
    for (const BkpRecord& rec : state.history) {
      if (rec.release >= t1 - kTimeEps && rec.deadline <= t2 + kTimeEps) {
        work += rec.work;
      }
    }
    best = std::max(best, work / (t2 - t0));
  }
  return best;
}

const std::vector<opt::SpeedSegment>& SpeedScalingScheduler::speed_profile(
    double t0, const CoreState& state) {
  std::vector<opt::SpeedSegment>& segments = profile_.profile;
  if (options_.policy == SpeedScalingPolicy::kAvr) {
    // Suffix sums of the densities still in their windows (rebuild pruned
    // the rest), one segment per distinct deadline.
    live_ = state.densities;
    std::sort(live_.begin(), live_.end(),
              [](const AvrEntry& a, const AvrEntry& b) {
                return a.deadline < b.deadline;
              });
    double running = 0.0;
    for (const AvrEntry& e : live_) {
      running += e.density;
    }
    segments.clear();
    std::size_t i = 0;
    while (i < live_.size()) {
      const double deadline = live_[i].deadline;
      segments.push_back({segments.empty() ? t0 : segments.back().t1, deadline,
                          running});
      while (i < live_.size() && live_[i].deadline == deadline) {
        running -= live_[i].density;
        ++i;
      }
    }
  } else {
    // Everything on hand is released at t0, so the YDS re-solve is the
    // agreeable taut string.
    pending_.clear();
    for (const workload::Job* job : state.active) {
      if (job->deadline > t0 + kTimeEps) {
        pending_.push_back(opt::YdsJob{t0, job->deadline, job->remaining_target()});
      }
    }
    const bool agreeable = opt::agreeable_profile(pending_, profile_);
    GE_CHECK(agreeable, "OA: jobs released together must be agreeable");
    if (options_.policy == SpeedScalingPolicy::kQoa && options_.q != 1.0) {
      for (opt::SpeedSegment& seg : segments) {
        seg.speed *= options_.q;
      }
    } else if (options_.policy == SpeedScalingPolicy::kBkp) {
      // The OA staircase is the feasibility floor; the BKP estimate rides
      // on top until the next refresh re-samples it.
      const double estimate = bkp_speed(t0, state);
      for (opt::SpeedSegment& seg : segments) {
        seg.speed = std::max(seg.speed, estimate);
      }
    }
  }
  for (opt::SpeedSegment& seg : segments) {
    seg.speed = std::min(seg.speed, state.cap_speed);
  }
  return segments;
}

void SpeedScalingScheduler::arm_refresh(std::size_t core_id) {
  if (options_.refresh_interval <= 0.0) {
    return;
  }
  CoreState& state = cores_[core_id];
  if (state.refresh_event != sim::kInvalidEventId) {
    env_.sim->cancel(state.refresh_event);
    state.refresh_event = sim::kInvalidEventId;
  }
  if (state.active.empty()) {
    return;
  }
  state.refresh_event =
      env_.sim->schedule_in(options_.refresh_interval, [this, core_id] {
        cores_[core_id].refresh_event = sim::kInvalidEventId;
        rebuild(core_id);
      });
}

void SpeedScalingScheduler::rebuild(std::size_t core_id) {
  server::Core& core = env_.server->core(core_id);
  if (!core.online()) {
    return;  // stranded jobs settle at their deadlines
  }
  const double t = now();
  core.advance_to(t);
  CoreState& state = cores_[core_id];

  // Settle jobs that already received their full target (their segment
  // boundary may share this timestamp and not have fired yet).
  {
    std::vector<workload::Job*> done;
    for (workload::Job* job : state.active) {
      if (job->remaining_target() <= kDoneEps) {
        done.push_back(job);
      }
    }
    for (workload::Job* job : done) {
      forget(job);
      settle(job);
    }
  }

  if (options_.policy == SpeedScalingPolicy::kAvr) {
    std::erase_if(state.densities, [t](const AvrEntry& e) {
      return e.deadline <= t + kTimeEps;
    });
  } else if (options_.policy == SpeedScalingPolicy::kBkp) {
    std::erase_if(state.history, [t](const BkpRecord& r) {
      return r.deadline < t &&
             t - r.release > kBkpHistoryFactor * (r.deadline - r.release);
    });
  }

  std::sort(state.active.begin(), state.active.end(),
            [](const workload::Job* a, const workload::Job* b) {
              if (a->deadline != b->deadline) {
                return a->deadline < b->deadline;
              }
              return a->id < b->id;
            });
  const std::vector<opt::SpeedSegment>& segments = speed_profile(t, state);

  opt::ExecutionPlan plan;
  std::size_t bi = 0;  // profile segment the cursor sits in
  double cursor = t;
  for (workload::Job* job : state.active) {
    const double remaining = job->remaining_target();
    if (remaining <= kDoneEps) {
      continue;
    }
    if (job->deadline <= cursor + kTimeEps) {
      continue;  // due now; its deadline event settles it
    }
    // Walk the profile: where would this job finish?
    std::vector<opt::PlanSegment> pieces;
    std::size_t walk = bi;
    double piece_cursor = cursor;
    double left = remaining;
    bool fits = false;
    while (walk < segments.size()) {
      const opt::SpeedSegment& seg = segments[walk];
      if (seg.t1 <= piece_cursor + kTimeEps) {
        ++walk;
        continue;
      }
      if (seg.speed <= 0.0) {
        break;
      }
      const double span = seg.t1 - piece_cursor;
      const double capacity = seg.speed * span;
      if (capacity >= left - kSliverEps) {
        const double duration = left / seg.speed;
        pieces.push_back(opt::PlanSegment{job, piece_cursor,
                                          piece_cursor + duration, seg.speed,
                                          left});
        piece_cursor += duration;
        left = 0.0;
        fits = true;
        break;
      }
      pieces.push_back(
          opt::PlanSegment{job, piece_cursor, seg.t1, seg.speed, capacity});
      left -= capacity;
      piece_cursor = seg.t1;
      ++walk;
    }
    if (fits && piece_cursor <= job->deadline + kSnapEps) {
      if (piece_cursor > job->deadline) {
        // fp drift past the deadline (OA finishes critical jobs exactly at
        // their deadlines): pull the last piece back and absorb the speed
        // difference, which is within ulps.
        opt::PlanSegment& last = pieces.back();
        last.end = job->deadline;
        last.speed = last.units / (last.end - last.start);
        piece_cursor = job->deadline;
      }
      for (const opt::PlanSegment& piece : pieces) {
        if (piece.end - piece.start > kSliverEps) {
          plan.segments.push_back(piece);
        }
      }
      bi = walk;
      cursor = piece_cursor;
    } else {
      // Finish-by-deadline repair: the profile is too slow for this job
      // (q < 1, or the profile ran dry).  Run it at the slowest constant
      // speed that completes by the deadline; if the cap binds, run at the
      // cap until the deadline and settle partial (queue_policy semantics).
      const double window = job->deadline - cursor;
      double speed = remaining / window;
      double units = remaining;
      if (speed > state.cap_speed) {
        speed = state.cap_speed;
        units = speed * window;
      }
      if (units > kDoneEps && speed > 0.0) {
        plan.segments.push_back(
            opt::PlanSegment{job, cursor, job->deadline, speed, units});
      }
      cursor = job->deadline;
      while (bi < segments.size() && segments[bi].t1 <= cursor + kTimeEps) {
        ++bi;
      }
    }
  }

  if (options_.speed_table != nullptr) {
    plan = rectify_plan(plan, *options_.speed_table, state.cap_speed);
  }
  core.install_plan(std::move(plan), core_cap_watts_);
  arm_refresh(core_id);
}

}  // namespace ge::sched
