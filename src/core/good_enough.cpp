#include "core/good_enough.h"

#include <algorithm>
#include <cmath>

#include "core/plan_rectifier.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "opt/energy_opt.h"
#include "opt/job_cutter.h"
#include "opt/quality_opt.h"
#include "util/check.h"

namespace ge::sched {
namespace {

// Remaining work below this many units counts as "done".
constexpr double kWorkEps = 1e-6;
// Deadlines closer than this are treated as already passed for planning.
constexpr double kTimeEps = 1e-9;

// EDF order: (deadline, arrival id) is a total order, so any subset of jobs
// has exactly one sorted arrangement -- which is why a single sort per round
// (refresh_edf_cache) can replace the per-call sorts without changing any
// downstream sequence.
bool edf_before(const workload::Job* a, const workload::Job* b) {
  if (a->deadline != b->deadline) {
    return a->deadline < b->deadline;
  }
  return a->id < b->id;
}

}  // namespace

GoodEnoughScheduler::GoodEnoughScheduler(SchedulerEnv env, GoodEnoughOptions options,
                                         std::string name)
    : Scheduler(env, std::move(name)),
      options_(options),
      assigner_(env.server->core_count(), options.cumulative_rr),
      load_(options.load_window) {
  // Every core starts dirty (and with an impossible last-seen online state)
  // so the first round rebuilds everything.
  edf_dirty_.assign(env.server->core_count(), 1);
  edf_online_.assign(env.server->core_count(), 2);
  GE_CHECK(options_.q_ge >= 0.0 && options_.q_ge <= 1.0, "q_ge must be in [0,1]");
  GE_CHECK(options_.cut_target >= 0.0 && options_.cut_target <= 1.0,
           "cut_target must be in [0,1]");
  GE_CHECK(options_.quantum > 0.0, "quantum must be positive");
  GE_CHECK(options_.counter_threshold > 0, "counter threshold must be positive");
  mode_ = options_.cutting ? Mode::kAes : Mode::kBq;
  if (obs::Telemetry* tel = env_.sim->telemetry(); tel != nullptr) {
    prof_ = tel->profile;
  }
}

void GoodEnoughScheduler::start() {
  mode_accounted_until_ = now();
  arm_quantum();
}

void GoodEnoughScheduler::arm_quantum() {
  quantum_event_ = env_.sim->schedule_in(options_.quantum, [this] {
    quantum_event_ = sim::kInvalidEventId;
    schedule_round();
    arm_quantum();
  });
}

void GoodEnoughScheduler::on_job_arrival(workload::Job* job) {
  load_.record_arrival(now());
  waiting_.push_back(job);
  // Counter triggering, plus immediate dispatch when capacity sits idle
  // (the idle-core trigger seen from the arrival side).
  if (static_cast<int>(waiting_.size()) >= options_.counter_threshold ||
      env_.server->find_idle_core(now()) >= 0) {
    schedule_round();
  }
}

void GoodEnoughScheduler::on_core_idle(int core_id) {
  (void)core_id;
  if (!waiting_.empty()) {
    schedule_round();
  }
}

void GoodEnoughScheduler::mark_core_dirty(int core_id) {
  if (core_id >= 0 && static_cast<std::size_t>(core_id) < edf_dirty_.size()) {
    edf_dirty_[static_cast<std::size_t>(core_id)] = 1;
  }
}

void GoodEnoughScheduler::settle_tracked(workload::Job* job) {
  mark_core_dirty(job->core);  // settle() detaches the job; read core first
  settle(job);
}

void GoodEnoughScheduler::on_job_finished(workload::Job* job) {
  if (!job->settled) {
    settle_tracked(job);
  }
}

void GoodEnoughScheduler::on_deadline(workload::Job* job) {
  if (!job->settled) {
    settle_tracked(job);
  }
  // A settlement can free a core while work is waiting; don't sit on it
  // until the next quantum.
  if (!in_round_ && !waiting_.empty() && env_.server->find_idle_core(now()) >= 0) {
    schedule_round();
  }
}

void GoodEnoughScheduler::finish() {
  for (workload::Job* job : waiting_) {
    if (!job->settled) {
      settle_tracked(job);
    }
  }
  waiting_.clear();
  for (std::size_t i = 0; i < env_.server->core_count(); ++i) {
    queue_scratch_ = env_.server->core(i).queue();  // settle() mutates it
    for (workload::Job* job : queue_scratch_) {
      if (!job->settled) {
        settle_tracked(job);
      }
    }
  }
  account_mode_time();
}

void GoodEnoughScheduler::account_mode_time() {
  const double t = now();
  const double dt = t - mode_accounted_until_;
  if (dt > 0.0) {
    (mode_ == Mode::kAes ? aes_time_ : bq_time_) += dt;
    mode_accounted_until_ = t;
  }
}

SchedulerStats GoodEnoughScheduler::stats(double t) const {
  const double open = std::max(t - mode_accounted_until_, 0.0);
  return {.aes_s = aes_time_ + (mode_ == Mode::kAes ? open : 0.0),
          .bq_s = bq_time_ + (mode_ == Mode::kBq ? open : 0.0),
          .rounds = rounds_,
          .wf_rounds = wf_rounds_,
          .es_rounds = es_rounds_,
          .mode = mode_ == Mode::kBq ? 1 : 0};
}

GoodEnoughScheduler::Mode GoodEnoughScheduler::choose_mode() const {
  if (!options_.cutting) {
    return Mode::kBq;  // Best Effort: never cut
  }
  // Strictly-below test with a small numeric slack: AES cuts batches to
  // *exactly* Q_GE, so without slack the monitored quality sits on the
  // boundary and floating-point noise would flap the mode.
  constexpr double kQualitySlack = 1e-6;
  if (options_.compensation && env_.monitor->quality() < options_.q_ge - kQualitySlack) {
    return Mode::kBq;  // compensation policy (Sec. III-C)
  }
  return Mode::kAes;
}

void GoodEnoughScheduler::refresh_edf_cache() {
  const std::size_t m = env_.server->core_count();
  edf_cache_.resize(m);
  edf_demand_.resize(m);
  cut_targets_.resize(m);
  cut_levels_.resize(m);
  cut_valid_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    server::Core& core = env_.server->core(i);
    const std::uint8_t online = core.online() ? 1 : 0;
    // A clean core's cache is exact: queue membership only changes through
    // assignment and settlement (both mark the core dirty), and membership
    // plus the (deadline, id) total order determine the sequence uniquely.
    if (edf_dirty_[i] == 0 && edf_online_[i] == online) {
      if (m_edf_skips_ != nullptr) {
        m_edf_skips_->increment();
      }
      continue;
    }
    edf_dirty_[i] = 0;
    edf_online_[i] = online;
    cut_valid_[i] = 0;
    std::vector<workload::Job*>& jobs = edf_cache_[i];
    std::vector<double>& demands = edf_demand_[i];
    jobs.clear();
    demands.clear();
    if (!online) {
      continue;  // offline cores are never planned; stranded jobs settle later
    }
    for (workload::Job* job : core.queue()) {
      if (!job->settled) {
        jobs.push_back(job);
      }
    }
    std::sort(jobs.begin(), jobs.end(), edf_before);
    demands.reserve(jobs.size());
    for (const workload::Job* job : jobs) {
      demands.push_back(job->demand);  // immutable: lane valid while clean
    }
    if (m_edf_rebuilds_ != nullptr) {
      m_edf_rebuilds_->increment();
    }
  }
}

void GoodEnoughScheduler::set_targets(server::Core& core, Mode mode) {
  // The cache was rebuilt after the round's settlement sweep and nothing
  // settles between then and target-setting, so it is exactly the fresh EDF
  // queue here.
  const std::vector<workload::Job*>& jobs =
      edf_cache_[static_cast<std::size_t>(core.id())];
  if (jobs.empty()) {
    return;
  }
  if (mode == Mode::kBq) {
    for (workload::Job* job : jobs) {
      job->target = job->demand;
    }
    return;
  }
  // AES: Longest-First cutting against the original demands (a running job
  // is re-cut as if new, Sec. III-B); a target can never drop below what is
  // already executed.  Demands come from the SoA lane kept alongside the
  // EDF cache, and the cut is recomputed only when that lane was rebuilt.
  const std::size_t c = static_cast<std::size_t>(core.id());
  if (cut_valid_[c] == 0) {
    opt::cut_longest_first(edf_demand_[c], *env_.quality_function,
                           options_.cut_target, cut_scratch_);
    cut_targets_[c].swap(cut_scratch_.result.targets);
    cut_levels_[c] = cut_scratch_.result.level;
    cut_valid_[c] = 1;
  }
  const std::vector<double>& targets = cut_targets_[c];
  const double level = cut_levels_[c];
  double target_units = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i]->target = std::max(targets[i], std::min(jobs[i]->executed, jobs[i]->demand));
    target_units += jobs[i]->target;
  }
  if (m_cut_level_ != nullptr) {
    m_cut_level_->observe(level);
  }
  if (trace() != nullptr) {
    obs::TraceEvent ev;
    ev.type = obs::TraceEventType::kCut;
    ev.t = now();
    ev.core = core.id();
    ev.a = static_cast<double>(jobs.size());
    ev.b = level;
    ev.c = target_units;
    trace()->push(ev);
  }
}

void GoodEnoughScheduler::collect_plan_jobs(const server::Core& core, double t) {
  // The cache is already EDF-sorted; filtering it preserves sortedness.
  // Jobs settled since the cache was built (expired jobs settle during
  // cleanup, the target-completion sweep settles others) carry the settled
  // flag; skipping them yields the sequence a fresh sort would produce.
  plan_jobs_.clear();
  for (workload::Job* job : edf_cache_[static_cast<std::size_t>(core.id())]) {
    if (job->settled || job->deadline <= t + kTimeEps) {
      continue;
    }
    const double rem = job->remaining_target();
    if (rem <= kWorkEps) {
      continue;
    }
    plan_jobs_.push_back(opt::PlanJob{job, rem, job->deadline});
  }
}

double GoodEnoughScheduler::core_power_demand(server::Core& core) {
  const double t = now();
  collect_plan_jobs(core, t);
  const double speed = opt::required_speed(t, plan_jobs_);
  return core.power_model().power(speed);
}

void GoodEnoughScheduler::distribute_power() {
  const double budget = env_.server->power_budget();
  const std::size_t m = env_.server->core_count();
  const std::size_t alive = env_.server->online_cores();
  const power::DistributionPolicy policy = power::resolve_hybrid(
      options_.power_policy, load_.rate(now()), options_.critical_load);
  if (policy == power::DistributionPolicy::kEqualSharing) {
    ++es_rounds_;
    if (m_rounds_es_ != nullptr) {
      m_rounds_es_->increment();
    }
    // Equal share over the *online* cores; offline cores draw nothing.
    caps_.assign(m, 0.0);
    if (alive > 0) {
      const double share = budget / static_cast<double>(alive);
      for (std::size_t i = 0; i < m; ++i) {
        caps_[i] = env_.server->core(i).online() ? share : 0.0;
      }
    }
    return;
  }
  ++wf_rounds_;
  if (m_rounds_wf_ != nullptr) {
    m_rounds_wf_->increment();
  }
  demand_watts_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    demand_watts_[i] = env_.server->core(i).online()
                           ? core_power_demand(env_.server->core(i))
                           : 0.0;
  }
  power::water_filling(budget, demand_watts_, caps_);
}

void GoodEnoughScheduler::plan_core(server::Core& core, double cap_watts,
                                    double* budget_slack) {
  const double t = now();
  const power::PowerModel& pm = core.power_model();
  collect_plan_jobs(core, t);
  const double s_cap = std::min(pm.speed_for_power(cap_watts), options_.core_speed_cap);
  if (plan_jobs_.empty() || s_cap <= 0.0) {
    plan_.segments.clear();
    core.install_plan(std::move(plan_), cap_watts);
    return;
  }
  if (m_plans_ != nullptr) {
    m_plans_->increment();
  }
  const double required = opt::required_speed(t, plan_jobs_);
  if (required > s_cap * (1.0 + 1e-9)) {
    // Quality-OPT second cut (Sec. III-E): the cap cannot meet the targets;
    // trim them to maximise achievable quality under the cap.
    if (m_qopt_trims_ != nullptr) {
      m_qopt_trims_->increment();
    }
    alloc_jobs_.resize(plan_jobs_.size());
    for (std::size_t i = 0; i < plan_jobs_.size(); ++i) {
      alloc_jobs_[i] = opt::AllocJob{plan_jobs_[i].job->executed,
                                     plan_jobs_[i].remaining, plan_jobs_[i].deadline};
    }
    opt::maximize_quality(t, alloc_jobs_, s_cap, *env_.quality_function,
                          qopt_scratch_);
    const std::vector<double>& extra = qopt_scratch_.extra;
    trimmed_.clear();
    trimmed_.reserve(plan_jobs_.size());
    for (std::size_t i = 0; i < plan_jobs_.size(); ++i) {
      plan_jobs_[i].job->target = plan_jobs_[i].job->executed + extra[i];
      if (extra[i] > kWorkEps) {
        trimmed_.push_back(
            opt::PlanJob{plan_jobs_[i].job, extra[i], plan_jobs_[i].deadline});
      }
    }
    plan_jobs_.swap(trimmed_);
  }
  opt::plan_min_energy(t, plan_jobs_, s_cap, plan_);
  double cap_final = cap_watts;
  if (options_.speed_table != nullptr && !plan_.empty()) {
    // Discrete DVFS rectification (Sec. IV-A-5): round up when the budget
    // slack affords it, down otherwise; cores are processed lowest-cap
    // first by the caller.
    opt::ExecutionPlan ceiled =
        rectify_plan(plan_, *options_.speed_table,
                     std::numeric_limits<double>::infinity());
    const double peak = ceiled.max_power(pm);
    if (peak <= cap_watts + *budget_slack + 1e-9) {
      const double extra = std::max(peak - cap_watts, 0.0);
      *budget_slack -= extra;
      cap_final = cap_watts + extra;
      plan_ = std::move(ceiled);
    } else {
      plan_ = rectify_plan(plan_, *options_.speed_table, s_cap);
    }
  }
  core.install_plan(std::move(plan_), cap_final);
}

void GoodEnoughScheduler::schedule_round() {
  if (in_round_) {
    return;
  }
  in_round_ = true;
  obs::ScopedTimer round_timer(prof_ != nullptr ? &prof_->ge_round : nullptr);
  const double t = now();
  ++rounds_;
  account_mode_time();
  const std::size_t waiting_at_trigger = waiting_.size();
  if (m_rounds_ != nullptr) {
    m_rounds_->increment();
  }

  // 1. Settle waiting jobs whose deadline already passed (not yet assigned,
  // so no core cache is invalidated).
  for (workload::Job* job : waiting_) {
    if (!job->settled && job->expired(t)) {
      settle_tracked(job);
    }
  }
  std::erase_if(waiting_, [](const workload::Job* j) { return j->settled; });

  // 2. Pin waiting jobs to cores (Cumulative Round-Robin over online cores).
  if (env_.server->online_cores() > 0) {
    assigner_.begin_batch();
    for (workload::Job* job : waiting_) {
      std::size_t c = assigner_.next();
      while (!env_.server->core(c).online()) {
        c = assigner_.next();
      }
      job->core = static_cast<int>(c);
      env_.server->core(c).queue().push_back(job);
      mark_core_dirty(job->core);
      if (trace() != nullptr) {
        obs::TraceEvent ev;
        ev.type = obs::TraceEventType::kAssign;
        ev.t = t;
        ev.job = static_cast<std::int64_t>(job->id);
        ev.core = job->core;
        trace()->push(ev);
      }
    }
    waiting_.clear();
  }

  // 3. Credit in-flight work, then settle expired queued jobs.
  const std::size_t m = env_.server->core_count();
  for (std::size_t i = 0; i < m; ++i) {
    env_.server->core(i).advance_to(t);
    queue_scratch_ = env_.server->core(i).queue();  // settle() mutates it
    for (workload::Job* job : queue_scratch_) {
      if (!job->settled && job->expired(t)) {
        settle_tracked(job);
      }
    }
  }

  // One EDF sort per core per round; steps 4-6 consume the cached order.
  refresh_edf_cache();

  // 4. Execution mode (compensation policy) and per-core cut targets.
  // Offline cores are skipped: their stranded jobs settle at deadline.
  const Mode previous_mode = mode_;
  mode_ = choose_mode();
  if (m_rounds_ != nullptr) {
    (mode_ == Mode::kAes ? m_rounds_aes_ : m_rounds_bq_)->increment();
    if (mode_ != previous_mode) {
      m_mode_switches_->increment();
    }
  }
  if (trace() != nullptr) {
    if (mode_ != previous_mode) {
      obs::TraceEvent ev;
      ev.type = obs::TraceEventType::kModeSwitch;
      ev.t = t;
      ev.mode = mode_ == Mode::kAes ? obs::kModeAes : obs::kModeBq;
      ev.a = env_.monitor->quality();
      trace()->push(ev);
    }
    obs::TraceEvent ev;
    ev.type = obs::TraceEventType::kRound;
    ev.t = t;
    ev.mode = mode_ == Mode::kAes ? obs::kModeAes : obs::kModeBq;
    ev.a = static_cast<double>(waiting_at_trigger);
    ev.b = load_.rate(t);
    ev.c = static_cast<double>(rounds_);
    trace()->push(ev);
  }
  {
    obs::ScopedTimer cut_timer(prof_ != nullptr ? &prof_->cut : nullptr);
    for (std::size_t i = 0; i < m; ++i) {
      if (env_.server->core(i).online()) {
        set_targets(env_.server->core(i), mode_);
      }
    }
  }
  // Jobs that already hit their (possibly re-raised) target complete now.
  for (std::size_t i = 0; i < m; ++i) {
    queue_scratch_ = env_.server->core(i).queue();
    for (workload::Job* job : queue_scratch_) {
      if (!job->settled && job->remaining_target() <= kWorkEps) {
        settle_tracked(job);
      }
    }
  }

  // 5. Power caps.
  {
    obs::ScopedTimer dist_timer(prof_ != nullptr ? &prof_->power_dist : nullptr);
    distribute_power();
  }
  env_.server->check_caps(caps_);
  if (trace() != nullptr) {
    for (std::size_t i = 0; i < caps_.size(); ++i) {
      obs::TraceEvent ev;
      ev.type = obs::TraceEventType::kCap;
      ev.t = t;
      ev.core = static_cast<std::int32_t>(i);
      ev.a = caps_[i];
      trace()->push(ev);
    }
  }

  // 6. Per-core planning.  With a discrete ladder the paper rectifies
  // lowest-assigned-power cores first; keep index order otherwise.
  order_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    order_[i] = i;
  }
  double slack = env_.server->power_budget();
  for (double cap : caps_) {
    slack -= cap;
  }
  if (slack < 0.0) {
    slack = 0.0;
  }
  if (options_.speed_table != nullptr) {
    std::stable_sort(order_.begin(), order_.end(), [this](std::size_t a, std::size_t b) {
      return caps_[a] < caps_[b];
    });
  }
  {
    obs::ScopedTimer plan_timer(prof_ != nullptr ? &prof_->plan : nullptr);
    for (std::size_t idx : order_) {
      if (env_.server->core(idx).online()) {
        plan_core(env_.server->core(idx), caps_[idx], &slack);
      }
    }
  }
  in_round_ = false;
}

}  // namespace ge::sched
