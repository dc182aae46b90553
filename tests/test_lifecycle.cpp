// Tests for the server-lifecycle layer: the ServerLifecycle state machine,
// offline-aware dispatch (queue-at-dispatcher + re-dispatch on wake),
// admission control, multi-tenant accounting, the clairvoyant YDS offline
// bound, and byte-determinism of lifecycle/tenant runs across --shards and
// streaming replay.  The always-on single-tenant cluster results, with
// their inert lifecycle and tenant fields, are pinned in tests/goldens.txt
// (test_goldens).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "cluster/lifecycle.h"
#include "core/queue_policy.h"
#include "exp/config.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/telemetry.h"
#include "quality/quality_function.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace ge {
namespace {

// ---------------------------------------------------------------------------
// ServerLifecycle state machine.

TEST(LifecycleSpec, ValidatesParameters) {
  cluster::LifecycleSpec spec;
  spec.windows = {{1.0, 2.0}};
  spec.validate();  // must not abort

  cluster::LifecycleSpec negative = spec;
  negative.setup_energy_j = -1.0;
  EXPECT_DEATH(negative.validate(), "setup_energy_j");

  cluster::LifecycleSpec inverted = spec;
  inverted.windows = {{2.0, 1.0}};
  EXPECT_DEATH(inverted.validate(), "on_at");

  cluster::LifecycleSpec overlapping = spec;
  overlapping.windows = {{1.0, 3.0}, {2.0, 4.0}};
  EXPECT_DEATH(overlapping.validate(), "non-overlapping");
}

TEST(ServerLifecycle, WalksThroughStates) {
  cluster::LifecycleSpec spec;
  spec.windows = {{1.0, 2.0}};
  spec.wake_latency_s = 0.5;
  spec.setup_energy_j = 25.0;
  cluster::ServerLifecycle lc(spec);
  EXPECT_TRUE(lc.dispatchable());
  EXPECT_EQ(lc.state(), cluster::ServerState::kOnline);

  sim::Simulator sim;
  int wake_callbacks = 0;
  lc.schedule(sim, [&wake_callbacks] { ++wake_callbacks; });

  sim.run_until(1.5);  // inside the window, no drain grace -> straight OFF
  EXPECT_EQ(lc.state(), cluster::ServerState::kOff);
  EXPECT_FALSE(lc.dispatchable());

  sim.run_until(2.2);  // wake began at 2.0, latency 0.5 -> still waking
  EXPECT_EQ(lc.state(), cluster::ServerState::kWaking);
  EXPECT_FALSE(lc.dispatchable());
  EXPECT_EQ(lc.wakes(), 0u);

  sim.run_until(3.0);  // back online at 2.5
  EXPECT_EQ(lc.state(), cluster::ServerState::kOnline);
  EXPECT_TRUE(lc.dispatchable());
  EXPECT_EQ(lc.wakes(), 1u);
  EXPECT_DOUBLE_EQ(lc.setup_energy_j(), 25.0);
  // Offline from 1.0 until dispatchable again at 2.5.
  EXPECT_DOUBLE_EQ(lc.offline_s(3.0), 1.5);
  EXPECT_EQ(wake_callbacks, 1);
}

TEST(ServerLifecycle, DrainGraceDelaysPowerOff) {
  cluster::LifecycleSpec spec;
  spec.windows = {{1.0, 2.0}};
  spec.drain_grace_s = 0.4;
  cluster::ServerLifecycle lc(spec);

  sim::Simulator sim;
  lc.schedule(sim, nullptr);

  sim.run_until(1.2);  // inside the grace: draining, not dispatchable
  EXPECT_EQ(lc.state(), cluster::ServerState::kDraining);
  EXPECT_FALSE(lc.dispatchable());
  sim.run_until(1.5);
  EXPECT_EQ(lc.state(), cluster::ServerState::kOff);
  sim.run_until(2.5);  // zero wake latency: online right at on_at
  EXPECT_EQ(lc.state(), cluster::ServerState::kOnline);
  EXPECT_EQ(lc.wakes(), 1u);
}

// ---------------------------------------------------------------------------
// Config plumbing.

TEST(LifecycleConfig, ChurnAndExplicitWindowAreExclusive) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.churn = 0.2;
  cfg.off_at = 1.0;
  cfg.on_at = 2.0;
  EXPECT_DEATH(cfg.validate(), "churn");
}

TEST(LifecycleConfig, ChurnWindowsAreDeterministicPerServer) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.num_servers = 3;
  cfg.dispatch = cluster::DispatchPolicy::kRoundRobin;
  cfg.churn = 0.3;
  cfg.churn_dwell = 0.5;
  cfg.duration = 2.0;
  ASSERT_TRUE(cfg.lifecycle_active());

  const auto a = cfg.cluster_node_specs(cfg.power_budget);
  const auto b = cfg.cluster_node_specs(cfg.power_budget);
  ASSERT_EQ(a.size(), 3u);
  bool any_windows = false;
  bool differ = false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    a[s].lifecycle.validate();
    ASSERT_EQ(a[s].lifecycle.windows.size(), b[s].lifecycle.windows.size());
    for (std::size_t w = 0; w < a[s].lifecycle.windows.size(); ++w) {
      any_windows = true;
      // Same seed -> bit-identical windows on every call.
      EXPECT_EQ(a[s].lifecycle.windows[w].off_at,
                b[s].lifecycle.windows[w].off_at);
      EXPECT_EQ(a[s].lifecycle.windows[w].on_at,
                b[s].lifecycle.windows[w].on_at);
    }
    if (s > 0 && a[s].lifecycle.windows.size() != a[0].lifecycle.windows.size()) {
      differ = true;
    } else if (s > 0 && !a[s].lifecycle.windows.empty() &&
               a[s].lifecycle.windows[0].off_at !=
                   a[0].lifecycle.windows[0].off_at) {
      differ = true;
    }
  }
  EXPECT_TRUE(any_windows);  // churn 0.3 over 2 s: some server goes offline
  EXPECT_TRUE(differ);       // per-server RNG streams, not one shared trace
}

// ---------------------------------------------------------------------------
// Whole-fleet-OFF dispatch: jobs queue at the dispatcher, re-dispatch on
// wake, conservation holds, and nothing settles late.

exp::ExperimentConfig fleet_off_config() {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.num_servers = 2;
  cfg.dispatch = cluster::DispatchPolicy::kRoundRobin;
  cfg.cores = 4;
  cfg.power_budget = 80.0;
  cfg.arrival_rate = 120.0;
  cfg.duration = 1.0;
  cfg.seed = 41;
  cfg.off_at = 0.0;  // the whole fleet is unavailable from t=0 ...
  cfg.on_at = 0.3;   // ... until the wake completes at 0.3 + 0.1
  cfg.wake_latency = 0.1;
  cfg.setup_energy = 30.0;
  return cfg;
}

TEST(FleetOff, JobsQueueAndRedispatchOnWake) {
  exp::ExperimentConfig cfg = fleet_off_config();
  ASSERT_TRUE(cfg.lifecycle_active());
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);

  obs::RunTelemetry telemetry;
  telemetry.want_watchdog = true;
  const exp::RunResult r = exp::run_simulation(
      cfg, exp::SchedulerSpec::parse("GE"), trace, nullptr, &telemetry);

  // Paper deadlines (>= 150 ms) comfortably cover the 0.4 s outage for jobs
  // arriving after t=0.25; earlier jobs expire in the dispatcher queue.
  EXPECT_EQ(r.released, trace.jobs().size());
  EXPECT_GT(r.expired_in_queue, 0u);
  EXPECT_EQ(r.rejected, 0u);

  // Each server wakes exactly once and charges its setup energy -- kept out
  // of the dynamic-energy column.
  EXPECT_EQ(r.wakes, 2u);
  EXPECT_DOUBLE_EQ(r.setup_energy_j, 60.0);
  EXPECT_GT(r.energy, 0.0);

  // Conservation at the dispatch tier: every released job either reached a
  // server or expired in the dispatcher queue...
  std::uint64_t dispatched = 0;
  double first_dispatch_t = -1.0;
  for (const obs::TraceEvent& ev : telemetry.trace.events()) {
    if (ev.type == obs::TraceEventType::kDispatch) {
      ++dispatched;
      if (first_dispatch_t < 0.0) first_dispatch_t = ev.t;
    }
  }
  EXPECT_EQ(dispatched + r.expired_in_queue, r.released);
  // ... and nothing was dispatched before the fleet came back online.
  EXPECT_GE(first_dispatch_t, cfg.on_at + cfg.wake_latency);

  // No deadline drift: the watchdog's settlement / dispatch conservation and
  // monotone-clock checks all passed.
  std::uint64_t violations = 0;
  for (const obs::TraceEvent& ev : telemetry.trace.events()) {
    if (ev.type == obs::TraceEventType::kViolation) ++violations;
  }
  EXPECT_EQ(violations, 0u);
}

TEST(FleetOff, NoExpiryMeansEveryJobDispatches) {
  exp::ExperimentConfig cfg = fleet_off_config();
  // Stretch deadlines past the outage: released == sum of dispatches.
  cfg.deadline_interval = 0.6;
  cfg.deadline_interval_max = 0.9;
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);

  obs::RunTelemetry telemetry;
  telemetry.want_watchdog = true;
  const exp::RunResult r = exp::run_simulation(
      cfg, exp::SchedulerSpec::parse("GE"), trace, nullptr, &telemetry);

  EXPECT_EQ(r.expired_in_queue, 0u);
  std::uint64_t dispatched = 0;
  std::uint64_t violations = 0;
  for (const obs::TraceEvent& ev : telemetry.trace.events()) {
    if (ev.type == obs::TraceEventType::kDispatch) ++dispatched;
    if (ev.type == obs::TraceEventType::kViolation) ++violations;
  }
  EXPECT_EQ(dispatched, r.released);
  EXPECT_EQ(violations, 0u);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(Admission, RejectsDemandBeyondTheSlackCap) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 150.0;
  cfg.duration = 2.0;
  cfg.seed = 42;
  cfg.admission = 0.6;  // harsh cap: demand > 0.6 * fair-speed * window
  const exp::RunResult r =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));

  EXPECT_GT(r.rejected, 0u);
  EXPECT_LT(r.rejected, r.released);

  // The admission decision is a pure function of the job, so a re-run is
  // bit-identical.
  const exp::RunResult r2 =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));
  EXPECT_EQ(exp::to_json(r2), exp::to_json(r));

  // No admission: nothing rejected.
  cfg.admission = 0.0;
  const exp::RunResult open =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));
  EXPECT_EQ(open.rejected, 0u);
}

// ---------------------------------------------------------------------------
// Multi-tenant accounting.

TEST(Tenants, PerTenantSlicesPartitionTheRun) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 150.0;
  cfg.duration = 2.0;
  cfg.seed = 43;
  cfg.num_tenants = 3;
  cfg.tenant_qge = {0.9, 0.8, 0.95};
  const exp::RunResult r =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));

  ASSERT_EQ(r.tenants.size(), 3u);
  std::uint64_t released = 0, completed = 0, partial = 0, dropped = 0;
  double energy = 0.0;
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    const exp::TenantRunResult& tr = r.tenants[t];
    EXPECT_EQ(tr.q_target, cfg.tenant_qge[t]);
    EXPECT_GT(tr.released, 0u) << "tenant " << t;
    EXPECT_GE(tr.quality, 0.0);
    EXPECT_LE(tr.quality, 1.0);
    // SLO burn is the share of the error budget consumed.
    EXPECT_EQ(tr.slo_burn,
              (1.0 - tr.quality) / std::max(1.0 - tr.q_target, 1e-9));
    released += tr.released;
    completed += tr.completed;
    partial += tr.partial;
    dropped += tr.dropped;
    energy += tr.energy_j;
  }
  EXPECT_EQ(released, r.released);
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(partial, r.partial);
  EXPECT_EQ(dropped, r.dropped);
  // Energy attribution by executed share sums back to the run total.
  EXPECT_NEAR(energy, r.energy, 1e-9 * std::max(r.energy, 1.0));
}

TEST(Tenants, DefaultTenantQgeFallsBackToGlobalTarget) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 130.0;
  cfg.duration = 1.0;
  cfg.seed = 44;
  cfg.num_tenants = 2;  // no tenant_qge: every tenant inherits q_ge
  const exp::RunResult r =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));
  ASSERT_EQ(r.tenants.size(), 2u);
  for (const exp::TenantRunResult& tr : r.tenants) {
    EXPECT_EQ(tr.q_target, cfg.q_ge);
  }
}

TEST(Tenants, SingleTenantRunsKeepEmptySlices) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 130.0;
  cfg.duration = 1.0;
  const exp::RunResult r =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));
  EXPECT_TRUE(r.tenants.empty());
}

TEST(Tenants, TenantTagsAreDeterministic) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.num_tenants = 4;
  cfg.duration = 1.0;
  const workload::Trace a =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  const workload::Trace b =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  ASSERT_EQ(a.jobs().size(), b.jobs().size());
  bool nonzero = false;
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    EXPECT_EQ(a.jobs()[i].tenant, b.jobs()[i].tenant);
    ASSERT_GE(a.jobs()[i].tenant, 0);
    ASSERT_LT(a.jobs()[i].tenant, 4);
    nonzero = nonzero || a.jobs()[i].tenant != 0;
  }
  EXPECT_TRUE(nonzero);

  // The tenant stream must not perturb arrivals/demands/deadlines: a
  // single-tenant trace on the same seed is bit-identical job for job.
  exp::ExperimentConfig single = cfg;
  single.num_tenants = 1;
  const workload::Trace base =
      workload::Trace::generate(single.workload_spec(), single.duration);
  ASSERT_EQ(base.jobs().size(), a.jobs().size());
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    EXPECT_EQ(base.jobs()[i].arrival, a.jobs()[i].arrival);
    EXPECT_EQ(base.jobs()[i].demand, a.jobs()[i].demand);
    EXPECT_EQ(base.jobs()[i].deadline, a.jobs()[i].deadline);
    EXPECT_EQ(base.jobs()[i].tenant, 0);
  }
}

// ---------------------------------------------------------------------------
// Clairvoyant offline bound (YDS plugin).

TEST(OfflineBound, YdsPopulatesTheLowerBoundColumn) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 130.0;
  cfg.duration = 2.0;
  cfg.seed = 45;

  const exp::RunResult yds =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("YDS"));
  EXPECT_GT(yds.offline_energy_j, 0.0);
  EXPECT_EQ(yds.energy, 0.0);  // pseudo-scheduler: nothing executes
  // The global cut lands the quality essentially at the target.
  EXPECT_GE(yds.quality, cfg.q_ge - 0.02);

  const exp::RunResult ge =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));
  EXPECT_EQ(ge.offline_energy_j, -1.0);  // online schedulers compute none
  // The bound is a lower bound on what the online run actually spent.
  EXPECT_LE(yds.offline_energy_j, ge.energy);
}

// ---------------------------------------------------------------------------
// Determinism: churn + tenants across shards and streaming replay.

// Every field, tenant slices included, bit for bit.
void expect_identical(const exp::RunResult& a, const exp::RunResult& b) {
  EXPECT_EQ(exp::to_json(a), exp::to_json(b));
}

exp::ExperimentConfig churn_config() {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.num_servers = 4;
  cfg.dispatch = cluster::DispatchPolicy::kRoundRobin;
  cfg.cores = 4;
  cfg.power_budget = 80.0;
  cfg.arrival_rate = 200.0;
  cfg.duration = 2.0;
  cfg.seed = 46;
  cfg.churn = 0.3;
  cfg.churn_dwell = 0.4;
  cfg.wake_latency = 0.05;
  cfg.setup_energy = 10.0;
  cfg.num_tenants = 2;
  cfg.tenant_qge = {0.9, 0.8};
  return cfg;
}

TEST(ChurnDeterminism, ShardedMatchesSerialBitForBit) {
  exp::ExperimentConfig serial = churn_config();
  const exp::RunResult a =
      exp::run_simulation(serial, exp::SchedulerSpec::parse("GE"));
  EXPECT_GT(a.wakes, 0u);  // churn actually took servers down

  exp::ExperimentConfig sharded = churn_config();
  sharded.shards = 4;
  const exp::RunResult b =
      exp::run_simulation(sharded, exp::SchedulerSpec::parse("GE"));
  expect_identical(a, b);
}

TEST(ChurnDeterminism, StreamingMatchesMaterialisedBitForBit) {
  exp::ExperimentConfig materialised = churn_config();
  const exp::RunResult a =
      exp::run_simulation(materialised, exp::SchedulerSpec::parse("GE"));

  exp::ExperimentConfig streaming = churn_config();
  streaming.stream = true;
  const exp::RunResult b =
      exp::run_simulation(streaming, exp::SchedulerSpec::parse("GE"));
  expect_identical(a, b);
}

// Lifecycle transitions are released just in time, one pending per server,
// so a streamed run's event heap does not grow with the horizon: with the
// job cap reached long before either horizon, a 10x longer churned run
// peaks at the same pending-event count (an eager set-up would push every
// transition of every window).
TEST(Lifecycle, StreamedChurnHoldsOnlyDueTransitions) {
  double peaks[2] = {0.0, 0.0};
  std::uint64_t wakes[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    exp::ExperimentConfig cfg = churn_config();
    cfg.stream = true;
    cfg.max_jobs = 150;
    cfg.duration = i == 0 ? 4.0 : 40.0;
    SCOPED_TRACE(cfg.duration);
    obs::RunTelemetry telem;
    telem.want_trace = false;
    const exp::RunResult r = exp::run_simulation_stream(
        cfg, exp::SchedulerSpec::parse("GE"), nullptr, &telem);
    EXPECT_EQ(r.released, cfg.max_jobs);
    peaks[i] = telem.metrics
                   .gauge("sim.peak_pending_events", "events",
                          obs::Gauge::Merge::kMax)
                   .value();
    wakes[i] = r.wakes;
  }
  EXPECT_GT(wakes[1], 5 * wakes[0]);  // the long run cycles many more windows
  EXPECT_GT(peaks[0], 0.0);
  EXPECT_EQ(peaks[0], peaks[1]);
}

// ---------------------------------------------------------------------------
// Setup-time routing: a sharded run with state-free dispatch takes every
// decision in Cluster::plan_dispatch, which must replay the serial
// dispatcher exactly -- including a fleet that goes fully dark and jobs
// that sit on a transition instant.

TEST(PlanDispatch, RoutesHoldsRejectsAndExpiresLikeTheSerialDispatcher) {
  sim::Simulator sim;
  quality::ExponentialQuality f(0.003, 1000.0);
  std::vector<cluster::NodeSpec> nodes(2);
  for (cluster::NodeSpec& node : nodes) {
    node.core_models.assign(2, power::PowerModel(5.0, 2.0, 1000.0));
    node.power_budget = 40.0;
  }
  nodes[0].lifecycle.windows = {{0.2, 0.5}};
  nodes[1].lifecycle.windows = {{0.3, 0.6}};
  cluster::Cluster cluster(
      nodes, f,
      [](const sched::SchedulerEnv& env, const power::DiscreteSpeedTable*) {
        return std::make_unique<sched::QueuePolicyScheduler>(
            env, sched::QueuePolicyOptions{});
      },
      cluster::DispatchPolicy::kRoundRobin, 1, sim);
  cluster.set_admission_hook(
      [](const workload::Job& job) { return job.demand <= 500.0; });

  std::vector<workload::Job> jobs;
  const auto add = [&jobs](double arrival, double deadline, double demand) {
    workload::Job job;
    job.id = jobs.size() + 1;
    job.arrival = arrival;
    job.deadline = deadline;
    job.demand = demand;
    job.target = demand;
    jobs.push_back(job);
  };
  add(0.10, 0.25, 100.0);  // both online: rr -> 0
  add(0.25, 0.40, 100.0);  // node 0 dark: rr -> 1
  add(0.35, 0.80, 100.0);  // fleet dark: held, flushed at node 0's wake
  add(0.40, 0.55, 900.0);  // rejected, even while dark
  add(0.45, 0.50, 100.0);  // held; its deadline ties node 0's wake and wins
  add(0.45, 0.90, 100.0);  // held, flushed behind the 0.35 job
  add(0.60, 0.75, 100.0);  // arrives with node 1's wake: node 1 still dark

  using Route = cluster::Cluster::Route;
  const std::vector<Route> routes = cluster.plan_dispatch(jobs);
  const std::vector<Route> want = {Route::kArrival, Route::kArrival,
                                   Route::kHeld,    Route::kSettled,
                                   Route::kSettled, Route::kHeld,
                                   Route::kArrival};
  EXPECT_EQ(routes, want);
  // The flush runs with only node 0 online, so both held jobs land there.
  EXPECT_EQ(jobs[0].server, 0);
  EXPECT_EQ(jobs[1].server, 1);
  EXPECT_EQ(jobs[2].server, 0);
  EXPECT_EQ(jobs[5].server, 0);
  EXPECT_EQ(jobs[6].server, 0);
  EXPECT_EQ(cluster.node(0).dispatched(), 4u);
  EXPECT_EQ(cluster.node(1).dispatched(), 1u);
  // Rejected at arrival, expired at the deadline, neither ever dispatched.
  EXPECT_EQ(cluster.rejected(), 1u);
  EXPECT_EQ(cluster.expired_in_queue(), 1u);
  EXPECT_TRUE(jobs[3].settled);
  EXPECT_EQ(jobs[3].finish_time, jobs[3].arrival);
  EXPECT_EQ(jobs[3].server, workload::kUnassigned);
  EXPECT_TRUE(jobs[4].settled);
  EXPECT_EQ(jobs[4].finish_time, jobs[4].deadline);
  EXPECT_EQ(jobs[4].server, workload::kUnassigned);
  EXPECT_EQ(cluster.pending_peak(), 3u);
  EXPECT_EQ(cluster.pending(), 0u);  // held jobs queue at run time
  // The planned availability is gone: the live lifecycle state answers.
  EXPECT_TRUE(cluster.dispatchable(0));
  EXPECT_TRUE(cluster.dispatchable(1));
}

TEST(ShardedDarkFleet, MatchesSerialAcrossShardCounts) {
  std::uint64_t expired = 0;
  for (const cluster::DispatchPolicy policy :
       {cluster::DispatchPolicy::kRoundRobin, cluster::DispatchPolicy::kRandom}) {
    for (const double admission : {0.0, 0.6}) {
      exp::ExperimentConfig cfg = fleet_off_config();
      cfg.num_servers = 4;  // --shards 4 then puts one server on each shard
      cfg.dispatch = policy;
      cfg.admission = admission;
      SCOPED_TRACE(std::string(cluster::to_string(policy)) +
                   " admission=" + std::to_string(admission));
      const exp::RunResult serial =
          exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));
      EXPECT_EQ(serial.wakes, 4u);
      EXPECT_EQ(serial.rejected > 0, admission > 0.0);
      expired = std::max(expired, serial.expired_in_queue);
      for (const std::size_t shards : {2u, 4u}) {
        cfg.shards = shards;
        expect_identical(
            serial, exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE")));
      }
    }
  }
  EXPECT_GT(expired, 0u);
}

TEST(ShardedDarkFleet, TimestampTiesMatchSerial) {
  exp::ExperimentConfig cfg = fleet_off_config();
  cfg.num_servers = 4;
  cfg.off_at = 0.2;
  cfg.on_at = 0.5;
  cfg.wake_latency = 0.1;
  // The lifecycle computes the wake instant with the same expression.
  const double wake = cfg.on_at + cfg.wake_latency;

  // With a job arriving at the wake instant, that arrival already expires
  // the job whose deadline ties the wake; without it, the wake's flush
  // must.
  for (const bool arrival_at_wake : {true, false}) {
    std::vector<workload::Job> jobs;
    const auto add = [&jobs](double arrival, double deadline) {
      workload::Job job;
      job.id = jobs.size() + 1;
      job.arrival = arrival;
      job.deadline = deadline;
      job.demand = 120.0;
      job.target = job.demand;
      jobs.push_back(job);
    };
    for (const double t : {0.02, 0.06, 0.10, 0.14}) add(t, t + 0.15);
    add(cfg.off_at, cfg.off_at + 0.15);  // precedes the leave: dispatched
    const std::uint64_t at_off = jobs.back().id;
    add(0.25, 0.80);  // held, flushed at the wake
    add(0.30, 0.50);  // held, expires before the wake
    add(0.45, wake);  // held; its deadline ties the wake and wins
    add(0.50, 0.90);  // held, flushed at the wake
    std::uint64_t at_wake = 0;
    if (arrival_at_wake) {
      add(wake, wake + 0.15);  // precedes the wake: held, then flushed
      at_wake = jobs.back().id;
    }
    for (const double t : {0.62, 0.66, 0.70, 0.74, 0.78}) add(t, t + 0.15);
    const workload::Trace trace(jobs);

    for (const cluster::DispatchPolicy policy :
         {cluster::DispatchPolicy::kRoundRobin, cluster::DispatchPolicy::kRandom}) {
      cfg.dispatch = policy;
      cfg.shards = 1;
      SCOPED_TRACE(std::string(cluster::to_string(policy)) +
                   (arrival_at_wake ? " with" : " without") +
                   " an arrival at the wake");
      // The serial run fixes the tie semantics the plan must reproduce.
      obs::RunTelemetry telemetry;
      const exp::RunResult serial = exp::run_simulation(
          cfg, exp::SchedulerSpec::parse("GE"), trace, nullptr, &telemetry);
      EXPECT_EQ(serial.expired_in_queue, 2u);
      EXPECT_EQ(serial.wakes, 4u);
      std::size_t checked = 0;
      for (const obs::TraceEvent& ev : telemetry.trace.events()) {
        if (ev.type != obs::TraceEventType::kDispatch) continue;
        if (ev.job == static_cast<std::int64_t>(at_off)) {
          EXPECT_EQ(ev.t, cfg.off_at);
          ++checked;
        } else if (ev.job == static_cast<std::int64_t>(at_wake)) {
          EXPECT_EQ(ev.t, wake);
          ++checked;
        }
      }
      EXPECT_EQ(checked, arrival_at_wake ? 2u : 1u);

      const exp::RunResult untraced =
          exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"), trace);
      expect_identical(serial, untraced);
      for (const std::size_t shards : {2u, 4u}) {
        cfg.shards = shards;
        expect_identical(untraced, exp::run_simulation(
                                       cfg, exp::SchedulerSpec::parse("GE"), trace));
      }
    }
  }
}

}  // namespace
}  // namespace ge
