// Randomised end-to-end property suite: whole-system invariants that must
// hold for ANY configuration -- random core counts, budgets, rates,
// deadline regimes, burstiness, DVFS mode, monitor horizon, quality family
// and scheduler.  This is the fuzzing layer over the full stack.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <random>

#include "opt_totals.h"
#include "core/plan_rectifier.h"
#include "core/queue_policy.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "exp/timeline.h"
#include "opt/energy_opt.h"
#include "opt/job_cutter.h"
#include "power/discrete_speed.h"
#include "quality/quality_monitor.h"
#include "util/rng.h"

namespace ge::exp {
namespace {

struct RandomCase {
  ExperimentConfig cfg;
  SchedulerSpec spec;
  std::string description;
};

RandomCase make_case(std::uint64_t seed) {
  util::Rng rng(seed * 7919 + 1);
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.seed = seed;
  cfg.duration = 2.0 + rng.uniform(0.0, 2.0);
  cfg.cores = 1 + rng.uniform_index(32);
  cfg.power_budget = rng.uniform(40.0, 500.0);
  cfg.arrival_rate = rng.uniform(20.0, 260.0);
  cfg.q_ge = rng.uniform(0.5, 0.99);
  cfg.quantum = rng.uniform(0.05, 1.0);
  cfg.counter_threshold = 1 + static_cast<int>(rng.uniform_index(16));
  cfg.critical_load = rng.uniform(50.0, 250.0);
  cfg.monitor_window = rng.uniform_index(3) == 0 ? 500 : 0;
  cfg.discrete_speeds = rng.uniform_index(3) == 0;
  if (rng.uniform_index(3) == 0) {
    cfg.deadline_interval_max = 0.5;  // random windows
  }
  if (rng.uniform_index(4) == 0) {
    cfg.burst_peak_to_mean = rng.uniform(1.5, 3.5);
  }
  switch (rng.uniform_index(3)) {
    case 0:
      cfg.quality_family = QualityFamily::kExponential;
      cfg.quality_c = rng.uniform(0.0005, 0.01);
      break;
    case 1:
      cfg.quality_family = QualityFamily::kLinear;
      break;
    default:
      cfg.quality_family = QualityFamily::kPowerLaw;
      cfg.quality_c = rng.uniform(0.2, 0.9);
      break;
  }
  static const char* kNames[] = {"GE",   "GE-NoComp", "GE-ES", "GE-WF", "OQ",
                                 "BE",   "FCFS",      "FDFS",  "LJF",   "SJF"};
  const SchedulerSpec spec =
      SchedulerSpec::parse(kNames[rng.uniform_index(std::size(kNames))]);
  RandomCase c{cfg, spec, ""};
  c.description = "seed=" + std::to_string(seed) + " " + spec.display_name() +
                  " m=" + std::to_string(cfg.cores) +
                  " H=" + std::to_string(cfg.power_budget) +
                  " rate=" + std::to_string(cfg.arrival_rate) +
                  (cfg.discrete_speeds ? " discrete" : "") +
                  (cfg.burst_peak_to_mean > 1.0 ? " bursty" : "");
  return c;
}

class RandomConfigProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomConfigProperties, SystemInvariantsHold) {
  const RandomCase c = make_case(GetParam());
  SCOPED_TRACE(c.description);
  const workload::Trace trace =
      workload::Trace::generate(c.cfg.workload_spec(), c.cfg.duration);
  Timeline timeline;
  timeline.interval = 0.05;
  const RunResult r = run_simulation(c.cfg, c.spec, trace, &timeline);

  // Conservation: every released job is settled and classified exactly once.
  ASSERT_EQ(r.released, trace.size());
  ASSERT_EQ(r.released, r.completed + r.partial + r.dropped);

  // Quality is a valid average.
  ASSERT_GE(r.quality, 0.0);
  ASSERT_LE(r.quality, 1.0 + 1e-9);

  // Energy is bounded by running every core at the budget for the horizon.
  const double horizon = c.cfg.duration + c.cfg.deadline_interval_max +
                         2.0 * c.cfg.quantum;
  ASSERT_GE(r.energy, 0.0);
  ASSERT_LE(r.energy, c.cfg.power_budget * horizon * (1.0 + 1e-6));

  // Instantaneous power never exceeded the budget at any sample.
  ASSERT_LE(timeline.peak_power(), c.cfg.power_budget * (1.0 + 1e-6));

  // Responses happen inside the deadline window.
  ASSERT_LE(r.p99_response_ms,
            c.cfg.deadline_interval_max * 1000.0 + 1e-6);
  ASSERT_GE(r.p50_response_ms, 0.0);

  // Mode accounting is a valid fraction.
  ASSERT_GE(r.aes_fraction, 0.0);
  ASSERT_LE(r.aes_fraction, 1.0 + 1e-9);

  // Busy fraction is physical.
  ASSERT_GE(r.busy_fraction, 0.0);
  ASSERT_LE(r.busy_fraction, 1.0 + 1e-9);
}

TEST_P(RandomConfigProperties, DeterministicReplay) {
  const RandomCase c = make_case(GetParam());
  SCOPED_TRACE(c.description);
  const workload::Trace trace =
      workload::Trace::generate(c.cfg.workload_spec(), c.cfg.duration);
  const RunResult a = run_simulation(c.cfg, c.spec, trace);
  const RunResult b = run_simulation(c.cfg, c.spec, trace);
  ASSERT_DOUBLE_EQ(a.quality, b.quality);
  ASSERT_DOUBLE_EQ(a.energy, b.energy);
  ASSERT_EQ(a.completed, b.completed);
  ASSERT_EQ(a.dropped, b.dropped);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, RandomConfigProperties,
                         ::testing::Range<std::uint64_t>(1, 41));

// Cross-scheduler invariants on a shared trace.
class CrossSchedulerProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossSchedulerProperties, BeDominatesQualityGeDominatesEnergy) {
  util::Rng rng(GetParam() * 131 + 7);
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.seed = GetParam();
  cfg.duration = 4.0;
  cfg.arrival_rate = rng.uniform(80.0, 170.0);  // below deep overload
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  const RunResult ge = run_simulation(cfg, SchedulerSpec::parse("GE"), trace);
  const RunResult be = run_simulation(cfg, SchedulerSpec::parse("BE"), trace);
  ASSERT_GE(be.quality, ge.quality - 5e-3);
  ASSERT_LE(ge.energy, be.energy * 1.001);
  ASSERT_GE(ge.quality, cfg.q_ge - 0.02);  // the promise holds sub-overload
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSchedulerProperties,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Component-level properties: plan_rectifier, job_cutter, queue_policy.
// ---------------------------------------------------------------------------

// Random continuous plans pushed through rectify_plan must land on the
// ladder without violating any plan invariant: ladder-level speeds only,
// sequential non-overlapping segments, units consistent with speed*duration,
// every segment within its job's deadline, and never more work than the
// continuous plan carried (rounding down can only lose work, Fig. 12a).
TEST(PlanRectifierProperties, RectifiedPlansKeepCapacityAndDeadlines) {
  const power::DiscreteSpeedTable table =
      power::DiscreteSpeedTable::uniform_ghz(0.2, 2.0);
  std::mt19937_64 rng(501);
  std::uniform_real_distribution<double> work_dist(20.0, 1500.0);
  std::uniform_real_distribution<double> slack_dist(0.05, 1.0);
  std::uniform_int_distribution<int> n_dist(1, 10);
  std::uniform_real_distribution<double> limit_dist(300.0, 2500.0);

  for (int trial = 0; trial < 200; ++trial) {
    const int n = n_dist(rng);
    std::vector<workload::Job> storage(static_cast<std::size_t>(n));
    std::vector<opt::PlanJob> jobs(static_cast<std::size_t>(n));
    double d = 0.0;
    for (int i = 0; i < n; ++i) {
      const auto k = static_cast<std::size_t>(i);
      d += slack_dist(rng);
      storage[k].id = k + 1;
      storage[k].deadline = d;
      storage[k].demand = storage[k].target = work_dist(rng);
      jobs[k] = opt::PlanJob{&storage[k], storage[k].demand, d};
    }
    opt::ExecutionPlan plan;
    opt::plan_min_energy(0.0, jobs, std::numeric_limits<double>::infinity(), plan);
    // Alternate between an unconstrained ceil and a binding limit.
    const double limit = trial % 2 == 0
                             ? std::numeric_limits<double>::infinity()
                             : limit_dist(rng);
    const opt::ExecutionPlan out = sched::rectify_plan(plan, table, limit);

    double t = plan.start();
    for (const opt::PlanSegment& seg : out.segments) {
      EXPECT_TRUE(table.is_level(seg.speed))
          << "trial " << trial << " speed " << seg.speed;
      EXPECT_LE(seg.speed, limit + 1e-6);
      EXPECT_GE(seg.start, t - 1e-9) << "segments must be sequential";
      EXPECT_GT(seg.end, seg.start);
      EXPECT_LE(seg.end, seg.job->deadline + 1e-9);
      EXPECT_NEAR(seg.units, seg.speed * (seg.end - seg.start), 1e-6);
      t = seg.end;
    }
    EXPECT_LE(testdata::plan_units(out), testdata::plan_units(plan) + 1e-6)
        << "rectification must not create work";
    if (!out.empty()) {
      out.validate(0.0);
    }
  }
}

// The LF cut level and every per-job target are monotone non-decreasing in
// Q_GE, and the achieved batch quality meets the target.
TEST(JobCutterProperties, CutLevelsMonotoneInQualityTarget) {
  const quality::ExponentialQuality expq(0.003, 1000.0);
  const quality::PowerLawQuality plq(0.6, 1000.0);
  const quality::QualityFunction* fams[] = {&expq, &plq};
  std::mt19937_64 rng(502);
  std::uniform_real_distribution<double> demand(1.0, 1300.0);
  std::uniform_int_distribution<int> n_dist(1, 25);

  for (int trial = 0; trial < 150; ++trial) {
    const int n = n_dist(rng);
    std::vector<double> demands(static_cast<std::size_t>(n));
    for (double& p : demands) {
      p = demand(rng);
    }
    for (const quality::QualityFunction* f : fams) {
      double prev_level = -1.0;
      std::vector<double> prev_targets;
      for (double q = 0.1; q <= 1.0 + 1e-12; q += 0.1) {
        const opt::CutResult cut = opt::cut_longest_first(demands, *f, q);
        EXPECT_GE(cut.quality, q - 1e-6)
            << "achieved quality must meet the target (q=" << q << ")";
        EXPECT_GE(cut.level, prev_level - 1e-9)
            << "cut level must grow with Q_GE (q=" << q << ")";
        if (!prev_targets.empty()) {
          for (int i = 0; i < n; ++i) {
            const auto k = static_cast<std::size_t>(i);
            EXPECT_GE(cut.targets[k], prev_targets[k] - 1e-9)
                << "target " << i << " shrank when Q_GE rose to " << q;
          }
        }
        prev_level = cut.level;
        prev_targets = cut.targets;
      }
    }
  }
}

// Queue-policy tie stability: pick() uses strict comparisons, so among jobs
// with equal keys the first-queued job must win.  Each policy gets an
// instance where its key ties across all jobs; an unstable pick would
// dispatch a later job first and starve the earlier ones (observable as
// executed == 0 on jobs that should have run).
struct QueuePolicyHarness {
  sim::Simulator sim;
  power::PowerModel pm{5.0, 2.0, 1000.0};
  server::MulticoreServer server;
  quality::ExponentialQuality f{0.003, 1000.0};
  quality::QualityMonitor monitor{f};
  std::unique_ptr<sched::QueuePolicyScheduler> scheduler;
  std::vector<std::unique_ptr<workload::Job>> jobs;

  explicit QueuePolicyHarness(sched::QueuePolicyOptions options)
      : server(1, 20.0, pm, sim) {
    sched::SchedulerEnv env{&sim, &server, &f, &monitor};
    scheduler = std::make_unique<sched::QueuePolicyScheduler>(env, options);
    server.core(0).set_job_finished_callback(
        [this](workload::Job* j) { scheduler->on_job_finished(j); });
    server.core(0).set_idle_callback(
        [this](int id) { scheduler->on_core_idle(id); });
    scheduler->start();
  }

  workload::Job* add_job(double arrival, double deadline, double demand) {
    auto job = std::make_unique<workload::Job>();
    job->id = jobs.size() + 1;
    job->arrival = arrival;
    job->deadline = deadline;
    job->demand = demand;
    job->target = demand;
    workload::Job* ptr = job.get();
    jobs.push_back(std::move(job));
    sim.schedule_at(arrival, [this, ptr] { scheduler->on_job_arrival(ptr); });
    sim.schedule_at(ptr->deadline, [this, ptr] { scheduler->on_deadline(ptr); });
    return ptr;
  }
};

TEST(QueuePolicyProperties, TiedKeysDispatchInArrivalOrder) {
  // Equal demands, staggered deadlines: SJF, LJF and FCFS all tie on their
  // keys (demand / demand / arrival), so dispatch must follow queue order
  // and every job gets its slice before its own deadline.
  for (sched::QueueOrder order : {sched::QueueOrder::kFcfs, sched::QueueOrder::kSjf,
                                  sched::QueueOrder::kLjf}) {
    QueuePolicyHarness h(sched::QueuePolicyOptions{order, nullptr});
    constexpr int kJobs = 5;
    std::vector<workload::Job*> js;
    for (int i = 0; i < kJobs; ++i) {
      js.push_back(h.add_job(0.0, 0.5 * (i + 1), 100.0));
    }
    h.sim.run_until(10.0);
    h.scheduler->finish();
    double prev_finish = -1.0;
    for (int i = 0; i < kJobs; ++i) {
      SCOPED_TRACE(std::string(sched::to_string(order)) + " job " +
                   std::to_string(i));
      EXPECT_GT(js[static_cast<std::size_t>(i)]->executed, 0.0)
          << "stable pick must serve every tied job in order";
      EXPECT_GT(js[static_cast<std::size_t>(i)]->finish_time, prev_finish)
          << "finish order must match arrival order";
      prev_finish = js[static_cast<std::size_t>(i)]->finish_time;
    }
  }
}

TEST(QueuePolicyProperties, TiedDeadlinesServeFirstArrival) {
  // FDFS with identical deadlines: only one job can run (the rest expire
  // together), and stability demands it be the first queued.
  QueuePolicyHarness h(
      sched::QueuePolicyOptions{sched::QueueOrder::kFdfs, nullptr});
  std::vector<workload::Job*> js;
  for (int i = 0; i < 4; ++i) {
    js.push_back(h.add_job(0.0, 1.0, 200.0));
  }
  h.sim.run_until(2.0);
  h.scheduler->finish();
  EXPECT_GT(js[0]->executed, 0.0) << "first-queued job must be picked on a tie";
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(js[static_cast<std::size_t>(i)]->executed, 0.0)
        << "job " << i << " should have waited behind the tie winner";
  }
}

}  // namespace
}  // namespace ge::exp
