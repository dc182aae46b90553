// The cluster layer: N multicore servers, each with its own scheduler
// instance, behind a pluggable dispatch tier.
//
// A Cluster owns one ClusterNode per server -- the MulticoreServer, its
// per-server QualityMonitor (schedulers compensate against their *own*
// quality feedback, not the fleet's), an optional per-server discrete DVFS
// ladder, and the Scheduler built by a caller-supplied factory.  All nodes
// share one sim::Simulator, so a cluster run is a single deterministic
// event sequence; the dispatcher routes each arrival to a node, and
// deadline events follow the job to wherever it was dispatched.
//
// The single-server experiment is the one-node cluster with the passthrough
// dispatcher: every hook below degenerates to exactly the pre-cluster code
// path (the aggregation loops start from the identity element and add one
// term, which is bit-exact), so `num_servers == 1` reproduces the
// single-server results bit-identically -- the golden test in
// tests/test_cluster.cpp pins that contract.
//
// Layering: cluster sits between server/core and exp.  It deliberately does
// not know about ExperimentConfig or SchedulerSpec; exp::run_simulation
// translates its config into NodeSpecs and a scheduler factory, which keeps
// the dependency graph acyclic and lets tests assemble clusters directly.
// Lifecycle-aware dispatch (cluster/lifecycle.h): when nodes carry
// availability windows, the dispatcher only routes to ONLINE servers.  An
// arrival that finds no dispatchable server waits in the cluster's pending
// queue and is re-dispatched, in arrival order, when the next wake
// completes; a queued job whose deadline passes first settles at the
// dispatcher with zero work.  An optional admission hook can reject a job
// outright at arrival (Kling & Pietrzyk-style profitability screening).
// Both paths settle the job *without* any scheduler or monitor seeing it,
// so: monitored quality covers dispatched jobs only, while the run-level
// quality in RunResult counts rejected/expired jobs at f(0); and job
// conservation becomes released == sum(dispatched) + rejected +
// expired_in_queue.  With no lifecycle and no admission hook (the default)
// every branch below is dead and the dispatch path is bit-identical to the
// always-on implementation.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/dispatcher.h"
#include "cluster/lifecycle.h"
#include "core/scheduler.h"
#include "power/discrete_speed.h"
#include "quality/quality_monitor.h"
#include "server/multicore_server.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace ge::obs {
class MetricsRegistry;
}

namespace ge::cluster {

// Everything needed to build one server of the cluster.  Core counts, power
// models and DVFS ladders may differ per node (heterogeneous fleets).
struct NodeSpec {
  std::vector<power::PowerModel> core_models;  // size = node core count
  double power_budget = 0.0;                   // W, per server
  std::size_t monitor_window = 0;              // 0 = cumulative monitor
  // Discrete DVFS ladder; ignored when discrete_speeds is false.
  bool discrete_speeds = false;
  double discrete_step_ghz = 0.2;
  double discrete_max_ghz = 3.2;
  double units_per_ghz = 1000.0;
  // Availability windows + wake costs; the default (no windows) builds no
  // lifecycle at all and keeps the always-on fast path.
  LifecycleSpec lifecycle;
};

// One server plus its private scheduler stack.
class ClusterNode {
 public:
  server::MulticoreServer& server() noexcept { return *server_; }
  const server::MulticoreServer& server() const noexcept { return *server_; }
  sched::Scheduler& scheduler() noexcept { return *scheduler_; }
  const sched::Scheduler& scheduler() const noexcept { return *scheduler_; }
  quality::QualityMonitor& monitor() noexcept { return *monitor_; }
  const quality::QualityMonitor& monitor() const noexcept { return *monitor_; }
  const power::DiscreteSpeedTable* speed_table() const noexcept {
    return table_.get();
  }
  // Jobs dispatched to this node so far.
  std::uint64_t dispatched() const noexcept { return dispatched_; }
  // Null for an always-on node.
  const ServerLifecycle* lifecycle() const noexcept { return lifecycle_.get(); }

 private:
  friend class Cluster;
  std::unique_ptr<power::DiscreteSpeedTable> table_;
  std::unique_ptr<server::MulticoreServer> server_;
  std::unique_ptr<quality::QualityMonitor> monitor_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::unique_ptr<ServerLifecycle> lifecycle_;
  std::uint64_t dispatched_ = 0;
};

class Cluster final : public DispatchView {
 public:
  // Builds one scheduler for a node; called once per node, in node order
  // (relevant when telemetry is on: metric handles are created in node
  // order, which keeps registry output deterministic).
  using SchedulerFactory = std::function<std::unique_ptr<sched::Scheduler>(
      const sched::SchedulerEnv& env, const power::DiscreteSpeedTable* table)>;

  // `quality_function` must outlive the cluster.  `dispatch_seed` feeds the
  // random policy's private stream.  A one-node cluster always uses the
  // passthrough policy regardless of `policy` (there is nothing to decide,
  // and forcing it keeps single-server runs free of dispatcher state).
  // Node i's server, monitor and scheduler are built on node_sims[i]
  // (docs/DESIGN.md §11); several nodes may share a shard simulator, and a
  // serial run passes &control_sim for every node.  `control_sim` carries
  // the telemetry view and the cross-shard events.
  Cluster(const std::vector<NodeSpec>& nodes,
          const quality::QualityFunction& quality_function,
          const SchedulerFactory& factory, DispatchPolicy policy,
          std::uint64_t dispatch_seed, sim::Simulator& control_sim,
          const std::vector<sim::Simulator*>& node_sims);

  std::size_t size() const noexcept { return nodes_.size(); }
  ClusterNode& node(std::size_t i);
  const ClusterNode& node(std::size_t i) const;
  Dispatcher& dispatcher() noexcept { return *dispatcher_; }

  // Admission control: called once per arrival before any dispatch; return
  // false to reject the job (it settles immediately at the dispatcher with
  // zero executed work).  Must be a pure function of the job for the
  // determinism contracts to hold.  Null (default) admits everything.
  using AdmissionHook = std::function<bool(const workload::Job&)>;
  void set_admission_hook(AdmissionHook hook) { admission_ = std::move(hook); }

  // True when at least one node has availability windows.
  bool lifecycle_active() const noexcept { return lifecycle_active_; }

  // -- event-facing entry points (the runner schedules these) --------------
  void start();                             // scheduler->start(), node order
  void on_job_arrival(workload::Job* job);  // kArrival, admission, dispatch
  void on_deadline(workload::Job* job);     // forward to the job's node
  void finish();                            // scheduler->finish(), node order

  // The two halves of on_job_arrival's dispatch.  preroute() picks the
  // node, stamps job->server, counts the dispatch and emits the kDispatch
  // trace event; deliver() hands the prerouted job to its node's scheduler.
  std::size_t preroute(workload::Job* job);
  void deliver(workload::Job* job);

  // -- setup-time dispatch (sharded runs, docs/DESIGN.md §11) ---------------
  // What plan_dispatch decided for one job, and so which events it needs.
  enum class Route : std::uint8_t {
    kSettled,  // admission-rejected, or expired while queued: no events
    kArrival,  // dispatched at arrival: deliver() and deadline on its node
    kHeld,     // arrived to a dark fleet: hold() at arrival, delivered to
               // its planned node by the next completed wake's flush
  };

  // Replays, before the run, every dispatch decision the serial run would
  // take for `jobs` (sorted by arrival, the Trace order), for a state-free
  // policy (is_state_free) on a telemetry-free run.  The replay sweeps the
  // arrivals in (arrival, index) order together with the lifecycle
  // transitions; at equal times job events come first, because the runner
  // schedules every job event before start() registers the transitions.
  // It drives the real dispatcher -- so the rr cursor and the random
  // stream advance exactly as in the serial run -- while dispatchable()
  // reads the planned availability.  Rejections and in-queue expiries are
  // settled here (counted in rejected() / expired_in_queue() /
  // pending_peak()), and every other job leaves with job->server set.
  // Assumes the run executes every job's deadline event.
  std::vector<Route> plan_dispatch(std::vector<workload::Job>& jobs);
  // Arrival of a kHeld job: queue it for the next completed wake.
  void hold(workload::Job* job);

  // Node the job was dispatched to; checked error if it never arrived.
  std::size_t server_of(const workload::Job& job) const;

  // -- DispatchView ---------------------------------------------------------
  std::size_t num_servers() const override { return nodes_.size(); }
  std::size_t in_flight(std::size_t server) const override;
  double consumed_energy(std::size_t server) const override;
  std::size_t online_cores(std::size_t server) const override;
  bool dispatchable(std::size_t server) const override;

  // -- cluster-wide aggregates (sum over nodes, node order) -----------------
  std::size_t total_cores() const noexcept { return total_cores_; }
  double total_energy() const;
  double total_busy_time() const;
  double total_power(double t) const;
  std::size_t total_backlog() const;
  int busy_cores(double t) const;
  util::TimeWeightedStats aggregate_speed_stats() const;
  // Monitored quality: node 0's monitor for a one-node cluster (bit-exact
  // with the pre-cluster runner, windowed or not); the pooled cumulative
  // ratio sum(achieved) / sum(potential) otherwise.
  double monitored_quality() const;

  // -- lifecycle / admission accounting -------------------------------------
  // Jobs rejected by the admission hook, and jobs whose deadline expired
  // while queued at the dispatcher (both settled with zero work).
  std::uint64_t rejected() const noexcept { return rejected_; }
  std::uint64_t expired_in_queue() const noexcept { return expired_in_queue_; }
  // Jobs currently waiting for a wake, and the high-water mark.
  std::size_t pending() const noexcept { return pending_.size(); }
  std::size_t pending_peak() const noexcept { return pending_peak_; }
  // Fleet sums over node lifecycles (0 for always-on nodes).
  double total_setup_energy() const;
  std::uint64_t total_wakes() const;

  // End-of-run telemetry (docs/OBSERVABILITY.md): cluster.servers, then per
  // node in node order under an "sK." prefix, s0 included: dispatch count,
  // lifecycle breakdown (zeros for always-on nodes), server/core energy and
  // busy / idle time (idle = elapsed - busy).
  void export_metrics(obs::MetricsRegistry& registry, double elapsed) const;

 private:
  // Settles `job` at the dispatch tier (no scheduler/monitor involvement)
  // and emits the settlement trace event the watchdog's conservation checks
  // expect.
  void settle_at_dispatcher(workload::Job* job, double finish_time);
  // Re-dispatches every queued, unsettled job in arrival order -- to its
  // planned node when plan_dispatch already picked one; called when a
  // wake completes.
  void flush_pending();
  bool any_dispatchable() const;

  sim::Simulator* sim_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::size_t total_cores_ = 0;
  bool lifecycle_active_ = false;
  AdmissionHook admission_;
  // Per-node availability while plan_dispatch runs (empty otherwise);
  // dispatchable() reads it instead of the live lifecycle state.
  std::vector<char> planned_online_;
  std::deque<workload::Job*> pending_;
  std::size_t pending_peak_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t expired_in_queue_ = 0;
};

}  // namespace ge::cluster
