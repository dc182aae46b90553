// Tests for the cluster layer: dispatch policies against a fake view and
// cross-server aggregation.  That the num_servers == 1 cluster path
// reproduces the pre-cluster single-server runner exactly is pinned in
// tests/goldens.txt (`single/` keys, test_goldens).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "core/queue_policy.h"
#include "exp/config.h"
#include "exp/flags_config.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/telemetry.h"
#include "quality/quality_function.h"
#include "util/flags.h"
#include "workload/trace.h"

namespace ge::cluster {
namespace {

// ---------------------------------------------------------------------------
// Dispatch policies against a fake view.

struct FakeView final : public DispatchView {
  std::vector<std::size_t> flight;
  std::vector<double> energy;
  std::vector<std::size_t> cores;

  std::size_t num_servers() const override { return flight.size(); }
  std::size_t in_flight(std::size_t s) const override { return flight[s]; }
  double consumed_energy(std::size_t s) const override { return energy[s]; }
  std::size_t online_cores(std::size_t s) const override { return cores[s]; }
};

FakeView uniform_view(std::size_t n) {
  FakeView view;
  view.flight.assign(n, 0);
  view.energy.assign(n, 0.0);
  view.cores.assign(n, 4);
  return view;
}

TEST(DispatchPolicy, NamesRoundTrip) {
  for (DispatchPolicy policy :
       {DispatchPolicy::kSingle, DispatchPolicy::kRandom,
        DispatchPolicy::kRoundRobin, DispatchPolicy::kJsq,
        DispatchPolicy::kLeastEnergy}) {
    EXPECT_EQ(find_dispatch_policy(to_string(policy)), policy);
  }
  EXPECT_EQ(find_dispatch_policy("round-robin"), DispatchPolicy::kRoundRobin);
  EXPECT_EQ(find_dispatch_policy("power"), DispatchPolicy::kLeastEnergy);
  EXPECT_EQ(find_dispatch_policy("JSQ"), DispatchPolicy::kJsq);
  EXPECT_EQ(find_dispatch_policy("Least-Energy"), DispatchPolicy::kLeastEnergy);
}

// An unknown name is not a policy; on the command line it is a usage error
// (exit 2 naming the flag), not an abort.
TEST(DispatchPolicy, UnknownNameDies) {
  EXPECT_FALSE(find_dispatch_policy("fastest").has_value());
  const char* argv[] = {"prog", "--dispatch", "fastest"};
  const util::Flags flags(3, argv);
  EXPECT_EXIT((void)exp::apply_cluster_flags(exp::ExperimentConfig::paper_defaults(),
                                             flags),
              ::testing::ExitedWithCode(2),
              "--dispatch must be one of single, random, rr, jsq, least-energy");
}

TEST(DispatchPolicy, SingleAlwaysPicksServerZero) {
  FakeView view = uniform_view(3);
  view.flight = {9, 0, 0};
  auto d = make_dispatcher(DispatchPolicy::kSingle, view, 1);
  const workload::Job job;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(d->pick(job), 0u);
  }
}

TEST(DispatchPolicy, RoundRobinCycles) {
  FakeView view = uniform_view(3);
  auto d = make_dispatcher(DispatchPolicy::kRoundRobin, view, 1);
  const workload::Job job;
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(d->pick(job), i % 3);
  }
}

TEST(DispatchPolicy, JsqPicksFewestInFlightPerOnlineCore) {
  FakeView view = uniform_view(3);
  view.flight = {4, 1, 4};
  auto d = make_dispatcher(DispatchPolicy::kJsq, view, 1);
  const workload::Job job;
  EXPECT_EQ(d->pick(job), 1u);
  // Equal in-flight counts, unequal capacity: the bigger server wins
  // (2 jobs over 8 cores is lighter than 2 jobs over 2 cores).
  view.flight = {2, 2};
  view.cores = {2, 8};
  view.energy = {0.0, 0.0};
  auto d2 = make_dispatcher(DispatchPolicy::kJsq, view, 1);
  EXPECT_EQ(d2->pick(job), 1u);
}

TEST(DispatchPolicy, JsqTiesBreakToLowestIndex) {
  FakeView view = uniform_view(4);
  view.flight = {3, 2, 2, 5};
  auto d = make_dispatcher(DispatchPolicy::kJsq, view, 1);
  EXPECT_EQ(d->pick(workload::Job{}), 1u);
}

TEST(DispatchPolicy, LeastEnergyPicksArgmin) {
  FakeView view = uniform_view(3);
  view.energy = {120.0, 80.0, 200.0};
  auto d = make_dispatcher(DispatchPolicy::kLeastEnergy, view, 1);
  EXPECT_EQ(d->pick(workload::Job{}), 1u);
  view.energy = {50.0, 50.0, 90.0};
  auto d2 = make_dispatcher(DispatchPolicy::kLeastEnergy, view, 1);
  EXPECT_EQ(d2->pick(workload::Job{}), 0u);
}

TEST(DispatchPolicy, RandomIsSeededAndInRange) {
  FakeView view = uniform_view(8);
  auto a = make_dispatcher(DispatchPolicy::kRandom, view, 42);
  auto b = make_dispatcher(DispatchPolicy::kRandom, view, 42);
  auto c = make_dispatcher(DispatchPolicy::kRandom, view, 43);
  const workload::Job job;
  bool differs = false;
  for (int i = 0; i < 200; ++i) {
    const std::size_t sa = a->pick(job);
    EXPECT_LT(sa, 8u);
    EXPECT_EQ(sa, b->pick(job));  // same seed, same stream
    differs = differs || sa != c->pick(job);
  }
  EXPECT_TRUE(differs);  // distinct seeds decorrelate (200 draws over 8 bins)
}

// ---------------------------------------------------------------------------
// Cluster assembled directly (no exp layer): dispatch accounting.

std::unique_ptr<sched::Scheduler> fcfs_factory(
    const sched::SchedulerEnv& env, const power::DiscreteSpeedTable* table) {
  sched::QueuePolicyOptions opts;
  opts.order = sched::QueueOrder::kFcfs;
  opts.speed_table = table;
  return std::make_unique<sched::QueuePolicyScheduler>(env, opts);
}

TEST(Cluster, RoundRobinDispatchCountsSumToReleased) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 200.0;
  cfg.duration = 2.0;
  cfg.seed = 11;
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);

  sim::Simulator sim;
  quality::ExponentialQuality f(cfg.quality_c, cfg.demand_max);
  std::vector<NodeSpec> nodes(3);
  for (NodeSpec& node : nodes) {
    node.core_models.assign(4, power::PowerModel(5.0, 2.0, 1000.0));
    node.power_budget = 80.0;
  }
  Cluster cluster(nodes, f, fcfs_factory, DispatchPolicy::kRoundRobin, cfg.seed,
                  sim, std::vector<sim::Simulator*>(nodes.size(), &sim));
  EXPECT_EQ(cluster.size(), 3u);
  EXPECT_EQ(cluster.total_cores(), 12u);
  EXPECT_EQ(cluster.dispatcher().policy(), DispatchPolicy::kRoundRobin);

  std::vector<workload::Job> jobs = trace.jobs();
  for (workload::Job& job : jobs) {
    sim.schedule_at(job.arrival, [&cluster, &job] { cluster.on_job_arrival(&job); });
    sim.schedule_at(job.deadline, [&cluster, &job] { cluster.on_deadline(&job); });
  }
  cluster.start();
  sim.run_until(cfg.duration + cfg.deadline_interval_max + 1.0);
  cluster.finish();

  std::uint64_t dispatched = 0;
  for (std::size_t s = 0; s < cluster.size(); ++s) {
    dispatched += cluster.node(s).dispatched();
  }
  EXPECT_EQ(dispatched, jobs.size());
  // Round-robin: per-node counts differ by at most one.
  const std::uint64_t lo =
      std::min({cluster.node(0).dispatched(), cluster.node(1).dispatched(),
                cluster.node(2).dispatched()});
  const std::uint64_t hi =
      std::max({cluster.node(0).dispatched(), cluster.node(1).dispatched(),
                cluster.node(2).dispatched()});
  EXPECT_LE(hi - lo, 1u);
  // Every job routed is findable, and energy was burnt on every node.
  EXPECT_EQ(cluster.server_of(jobs.front()), 0u);
  for (std::size_t s = 0; s < cluster.size(); ++s) {
    EXPECT_GT(cluster.node(s).server().total_energy(), 0.0) << s;
  }
  // Aggregates equal the per-node sums.
  double energy = 0.0;
  for (std::size_t s = 0; s < cluster.size(); ++s) {
    energy += cluster.node(s).server().total_energy();
  }
  EXPECT_DOUBLE_EQ(cluster.total_energy(), energy);
}

TEST(Cluster, SingleNodeForcesPassthroughDispatcher) {
  sim::Simulator sim;
  quality::ExponentialQuality f(0.003, 1000.0);
  std::vector<NodeSpec> nodes(1);
  nodes[0].core_models.assign(2, power::PowerModel(5.0, 2.0, 1000.0));
  nodes[0].power_budget = 40.0;
  Cluster cluster(nodes, f, fcfs_factory, DispatchPolicy::kJsq, 1, sim, {&sim});
  EXPECT_EQ(cluster.dispatcher().policy(), DispatchPolicy::kSingle);
}

// ---------------------------------------------------------------------------
// exp::run_simulation on the cluster path.

TEST(ClusterRun, ConfigValidation) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.num_servers = 0;
  EXPECT_DEATH(cfg.validate(), "at least one server");
  cfg.num_servers = 2;
  cfg.server_cores = {8, 8, 8};
  EXPECT_DEATH(cfg.validate(), "one entry per server");
  cfg.server_cores = {8, 4};
  cfg.validate();
  EXPECT_EQ(cfg.server_core_count(0), 8u);
  EXPECT_EQ(cfg.server_core_count(1), 4u);
  const std::vector<NodeSpec> specs = cfg.cluster_node_specs(cfg.power_budget);
  EXPECT_EQ(specs[0].core_models.size() + specs[1].core_models.size(), 12u);
  // Failures land on the last server; 6 > 4 cores must be rejected.
  cfg.failure_cores = 6;
  EXPECT_DEATH(cfg.validate(), "cannot fail more cores");
}

TEST(ClusterRun, NodeSpecsScaleBudgetByCoreCount) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.num_servers = 2;
  cfg.server_cores = {16, 8};
  const std::vector<NodeSpec> specs = cfg.cluster_node_specs(320.0);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].core_models.size(), 16u);
  EXPECT_DOUBLE_EQ(specs[0].power_budget, 320.0);
  EXPECT_EQ(specs[1].core_models.size(), 8u);
  EXPECT_DOUBLE_EQ(specs[1].power_budget, 160.0);
}

TEST(ClusterRun, AggregatesAcrossServers) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 300.0;
  cfg.duration = 2.0;
  cfg.seed = 9;
  cfg.num_servers = 3;
  cfg.dispatch = DispatchPolicy::kRoundRobin;
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  obs::RunTelemetry telemetry;
  const exp::RunResult r = exp::run_simulation(
      cfg, exp::SchedulerSpec::parse("GE"), trace, nullptr, &telemetry);

  EXPECT_EQ(r.num_servers, 3u);
  EXPECT_EQ(r.dispatch, "rr");
  EXPECT_EQ(r.released, trace.jobs().size());

  obs::MetricsRegistry& reg = telemetry.metrics;
  EXPECT_EQ(
      reg.gauge("cluster.servers", "servers", obs::Gauge::Merge::kMax).value(),
      3.0);
  // Energy and dispatch counts: the cluster totals are the per-server sums.
  double energy = 0.0;
  double dispatched = 0.0;
  for (const char* s : {"s0.", "s1.", "s2."}) {
    const std::string prefix(s);
    energy += reg.counter(prefix + "server.energy_j", "J").value();
    const double d = reg.counter(prefix + "dispatched_jobs", "jobs").value();
    EXPECT_GT(d, 0.0) << prefix;
    dispatched += d;
  }
  EXPECT_DOUBLE_EQ(r.energy, energy);
  EXPECT_EQ(dispatched, static_cast<double>(r.released));
  // Round-robin balances, so the cross-server load CoV is tiny and the
  // energy CoV reflects only workload noise.
  EXPECT_GE(r.server_load_cov, 0.0);
  EXPECT_LT(r.server_load_cov, 0.01);
  EXPECT_GE(r.server_energy_cov, 0.0);
  EXPECT_LT(r.server_energy_cov, 0.5);
}

// Metric names a telemetry run emits, with the server, tenant and core
// indices stripped ("s<K>.", "t<N>.", "core.<id>.").
std::set<std::string> metric_families(const exp::ExperimentConfig& cfg,
                                      const std::string& scheduler) {
  obs::RunTelemetry telemetry;
  const exp::SchedulerSpec spec = exp::SchedulerSpec::parse(scheduler);
  if (cfg.stream) {
    (void)exp::run_simulation_stream(cfg, spec, nullptr, &telemetry);
  } else {
    const workload::Trace trace =
        workload::Trace::generate(cfg.workload_spec(), cfg.duration);
    (void)exp::run_simulation(cfg, spec, trace, nullptr, &telemetry);
  }
  std::ostringstream json;
  telemetry.metrics.write_json(json);
  const std::string text = json.str();
  static const std::regex name_rx("\"name\": \"([^\"]+)\"");
  static const std::regex group_rx("^([st])\\d+\\.");
  static const std::regex core_rx("core\\.\\d+\\.");
  std::set<std::string> names;
  for (std::sregex_iterator it(text.begin(), text.end(), name_rx), end;
       it != end; ++it) {
    const std::string name = std::regex_replace((*it)[1].str(), group_rx, "$1<i>.");
    names.insert(std::regex_replace(name, core_rx, "core.<i>."));
  }
  return names;
}

// goodenough-metrics-v2: every family is emitted on every run, so the name
// set is the same for 1 or 3 servers, materialised or streamed jobs, an
// always-on or churning fleet with admission, 1 or 2 tenants, GE or FCFS.
TEST(ClusterRun, MetricNamesDoNotDependOnConfig) {
  exp::ExperimentConfig base = exp::ExperimentConfig::paper_defaults();
  base.duration = 0.5;
  base.seed = 4;
  const std::set<std::string> reference = metric_families(base, "GE");
  for (const char* name : {"sim.peak_pending_events", "stream.arena_bytes",
                           "jobs.rejected", "dispatch.pending_peak",
                           "lifecycle.wakes", "workload.tenants",
                           "cluster.servers", "ge.rounds"}) {
    EXPECT_EQ(reference.count(name), 1u) << name;
  }
  for (std::size_t servers : {1u, 3u}) {
    for (bool stream : {false, true}) {
      for (bool churn : {false, true}) {
        for (std::size_t tenants : {1u, 2u}) {
          exp::ExperimentConfig cfg = base;
          cfg.num_servers = servers;
          cfg.arrival_rate = 150.0 * static_cast<double>(servers);
          cfg.dispatch = DispatchPolicy::kRoundRobin;
          cfg.stream = stream;
          cfg.num_tenants = tenants;
          if (churn) {
            cfg.churn = 0.3;
            cfg.churn_dwell = 0.2;
            cfg.wake_latency = 0.05;
            cfg.admission = 1.5;
          }
          SCOPED_TRACE(testing::Message()
                       << servers << " servers, stream " << stream << ", churn "
                       << churn << ", " << tenants << " tenants");
          EXPECT_EQ(metric_families(cfg, "GE"), reference);
        }
      }
    }
  }
  EXPECT_EQ(metric_families(base, "FCFS"), reference);
}

TEST(ClusterRun, SingleServerReportsSingleShape) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 120.0;
  cfg.duration = 2.0;
  cfg.seed = 5;
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  // --dispatch is irrelevant at num_servers == 1: any policy gives the
  // passthrough run, bit for bit.
  cfg.dispatch = DispatchPolicy::kJsq;
  const exp::RunResult a =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"), trace);
  cfg.dispatch = DispatchPolicy::kRandom;
  const exp::RunResult b =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"), trace);
  EXPECT_EQ(a.num_servers, 1u);
  EXPECT_EQ(a.dispatch, "single");
  EXPECT_EQ(exp::to_json(a), exp::to_json(b));
  EXPECT_EQ(a.server_energy_cov, 0.0);
  EXPECT_EQ(a.server_load_cov, 0.0);
}

TEST(ClusterRun, HeterogeneousFleetRuns) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 250.0;
  cfg.duration = 2.0;
  cfg.seed = 13;
  cfg.num_servers = 2;
  cfg.dispatch = DispatchPolicy::kJsq;
  cfg.server_cores = {16, 8};
  cfg.server_power_scale = {1.0, 1.5};
  const exp::RunResult r =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));
  EXPECT_EQ(r.num_servers, 2u);
  EXPECT_EQ(r.dispatch, "jsq");
  EXPECT_GT(r.released, 0u);
  EXPECT_GT(r.energy, 0.0);
  EXPECT_GT(r.quality, 0.5);
}

}  // namespace
}  // namespace ge::cluster
