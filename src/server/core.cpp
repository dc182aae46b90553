#include "server/core.h"

#include <algorithm>
#include <utility>

#include "obs/telemetry.h"
#include "util/check.h"

namespace ge::server {
namespace {

constexpr double kPowerTol = 1e-6;

}  // namespace

Core::Core(int id, const power::PowerModel& pm, sim::Simulator& sim)
    : id_(id), pm_(&pm), sim_(&sim), cursor_(sim.now()) {}

void Core::set_offline(double now) {
  advance_to(now);
  finished_buffer_.clear();  // stranded jobs settle via their deadline events
  plan_ = opt::ExecutionPlan{};
  seg_idx_ = 0;
  seg_credited_ = 0.0;
  rearm_boundary_event();  // the plan is empty: cancels the boundary event
  power_cap_ = 0.0;
  online_ = false;
  if (obs::Telemetry* tel = sim_->telemetry(); tel != nullptr && tel->trace) {
    obs::TraceEvent ev;
    ev.type = obs::TraceEventType::kCoreOffline;
    ev.t = now;
    ev.core = id_;
    tel->trace->push(ev);
  }
}

void Core::install_plan(opt::ExecutionPlan&& plan, double power_cap) {
  GE_CHECK(online_, "cannot install a plan on an offline core");
  const double now = sim_->now();
  advance_to(now);
  // Jobs whose segments closed during the catch-up are owned by the caller
  // (the scheduler round re-examines every queued job), so no callbacks.
  finished_buffer_.clear();
  plan.validate(now);
  GE_CHECK(plan.max_power(*pm_) <= power_cap + kPowerTol,
           "plan exceeds the core's power cap");
  for (const opt::PlanSegment& seg : plan.segments) {
    GE_CHECK(std::find(queue_.begin(), queue_.end(), seg.job) != queue_.end(),
             "plan references a job not pinned to this core");
    GE_CHECK(!seg.job->settled, "plan references a settled job");
  }
  std::swap(plan_, plan);
  seg_idx_ = 0;
  seg_credited_ = 0.0;
  power_cap_ = power_cap;
  rearm_boundary_event();
}

void Core::advance_to(double t) {
  GE_CHECK(t <= sim_->now() + 1e-9, "cannot advance a core into the future");
  if (t <= cursor_) {
    return;
  }
  while (seg_idx_ < plan_.segments.size()) {
    const opt::PlanSegment& seg = plan_.segments[seg_idx_];
    const double from = std::max(seg.start, cursor_);
    const double to = std::min(seg.end, t);
    if (to > from) {
      const double dt = to - from;
      double credit = seg.speed * dt;
      if (to >= seg.end - 1e-12) {
        // Closing out the segment: credit exactly the remaining planned
        // units so floating-point drift cannot leave targets unreachable.
        credit = seg.units - seg_credited_;
      }
      if (credit > 0.0) {
        seg.job->executed += credit;
        seg_credited_ += credit;
      }
      energy_ += pm_->power(seg.speed) * dt;
      speed_stats_.add(seg.speed, dt);
      if (obs::Telemetry* tel = sim_->telemetry(); tel != nullptr && tel->trace) {
        obs::TraceEvent ev;
        ev.type = obs::TraceEventType::kExec;
        ev.t = from;
        ev.t2 = to;
        ev.core = id_;
        ev.job = static_cast<std::int64_t>(seg.job->id);
        ev.a = seg.speed;
        tel->trace->push(ev);
      }
    }
    if (t < seg.end) {
      break;  // still inside this segment
    }
    finished_buffer_.push_back(seg.job);
    ++seg_idx_;
    seg_credited_ = 0.0;
  }
  cursor_ = t;
}

void Core::remove_job(workload::Job* job, double now) {
  advance_to(now);
  auto it = std::find(queue_.begin(), queue_.end(), job);
  GE_CHECK(it != queue_.end(), "remove_job: job not pinned to this core");
  queue_.erase(it);
  // The caller is settling this job; it no longer needs callbacks.
  finished_buffer_.erase(
      std::remove(finished_buffer_.begin(), finished_buffer_.end(), job),
      finished_buffer_.end());
  // Drop this job's not-yet-finished segments.  Later segments keep their
  // absolute times (the gap simply stays idle; replanning normally follows).
  bool current_dropped = false;
  std::size_t w = seg_idx_;
  for (std::size_t r = seg_idx_; r < plan_.segments.size(); ++r) {
    if (plan_.segments[r].job == job) {
      if (r == seg_idx_) {
        current_dropped = true;
      }
      continue;
    }
    plan_.segments[w++] = plan_.segments[r];
  }
  plan_.segments.resize(w);
  if (current_dropped) {
    seg_credited_ = 0.0;
    rearm_boundary_event();
  }
  flush_finished();
}

bool Core::busy(double t) const {
  for (std::size_t i = seg_idx_; i < plan_.segments.size(); ++i) {
    if (plan_.segments[i].end > t) {
      return true;
    }
  }
  return false;
}

double Core::current_speed(double t) const {
  for (std::size_t i = seg_idx_; i < plan_.segments.size(); ++i) {
    const opt::PlanSegment& seg = plan_.segments[i];
    if (t < seg.start) {
      return 0.0;
    }
    if (t < seg.end) {
      return seg.speed;
    }
  }
  return 0.0;
}

void Core::rearm_boundary_event() {
  if (seg_idx_ >= plan_.segments.size()) {
    if (boundary_event_ != sim::kInvalidEventId) {
      sim_->cancel(boundary_event_);
      boundary_event_ = sim::kInvalidEventId;
    }
    return;
  }
  const double when = plan_.segments[seg_idx_].end;
  // Moving a pending event in place is cancel + schedule_at of the same
  // action, seq draw included, so the event order is unchanged.
  if (boundary_event_ != sim::kInvalidEventId) {
    boundary_event_ = sim_->reschedule(boundary_event_, when);
  }
  if (boundary_event_ == sim::kInvalidEventId) {
    boundary_event_ = sim_->schedule_at(when, [this] { on_segment_boundary(); });
  }
}

void Core::flush_finished() {
  while (!finished_buffer_.empty()) {
    std::vector<workload::Job*> batch;
    batch.swap(finished_buffer_);
    for (workload::Job* job : batch) {
      if (on_job_finished_) {
        on_job_finished_(job);
      }
    }
  }
}

void Core::on_segment_boundary() {
  boundary_event_ = sim::kInvalidEventId;
  advance_to(sim_->now());
  rearm_boundary_event();
  flush_finished();
  if (!busy(sim_->now()) && on_idle_) {
    on_idle_(id_);
  }
}

}  // namespace ge::server
