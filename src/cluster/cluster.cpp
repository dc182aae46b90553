#include "cluster/cluster.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/check.h"
#include "workload/job.h"

namespace ge::cluster {

Cluster::Cluster(const std::vector<NodeSpec>& nodes,
                 const quality::QualityFunction& quality_function,
                 const SchedulerFactory& factory, DispatchPolicy policy,
                 std::uint64_t dispatch_seed, sim::Simulator& control_sim,
                 const std::vector<sim::Simulator*>& node_sims)
    : sim_(&control_sim) {
  GE_CHECK(!nodes.empty(), "cluster needs at least one server");
  GE_CHECK(factory != nullptr, "cluster needs a scheduler factory");
  GE_CHECK(node_sims.size() == nodes.size(),
           "cluster needs one simulator per node");
  nodes_.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeSpec& spec = nodes[i];
    sim::Simulator& node_sim = *node_sims[i];
    auto node = std::make_unique<ClusterNode>();
    node->server_ = std::make_unique<server::MulticoreServer>(
        spec.core_models, spec.power_budget, node_sim);
    node->monitor_ = std::make_unique<quality::QualityMonitor>(
        quality_function, spec.monitor_window);
    if (spec.discrete_speeds) {
      node->table_ = std::make_unique<power::DiscreteSpeedTable>(
          power::DiscreteSpeedTable::uniform_ghz(
              spec.discrete_step_ghz, spec.discrete_max_ghz, spec.units_per_ghz));
    }
    sched::SchedulerEnv env;
    env.sim = &node_sim;
    env.server = node->server_.get();
    env.quality_function = &quality_function;
    env.monitor = node->monitor_.get();
    node->scheduler_ = factory(env, node->table_.get());
    GE_CHECK(node->scheduler_ != nullptr, "scheduler factory returned null");

    sched::Scheduler* scheduler = node->scheduler_.get();
    for (std::size_t i = 0; i < node->server_->core_count(); ++i) {
      node->server_->core(i).set_job_finished_callback(
          [scheduler](workload::Job* job) { scheduler->on_job_finished(job); });
      node->server_->core(i).set_idle_callback(
          [scheduler](int core_id) { scheduler->on_core_idle(core_id); });
    }
    if (!spec.lifecycle.always_on()) {
      node->lifecycle_ = std::make_unique<ServerLifecycle>(spec.lifecycle);
      lifecycle_active_ = true;
    }
    total_cores_ += node->server_->core_count();
    nodes_.push_back(std::move(node));
  }
  // A one-node cluster never consults its dispatcher state, so force the
  // passthrough: single-server runs stay independent of --dispatch.
  const DispatchPolicy effective =
      nodes_.size() == 1 ? DispatchPolicy::kSingle : policy;
  dispatcher_ = make_dispatcher(effective, *this, dispatch_seed);
}

ClusterNode& Cluster::node(std::size_t i) {
  GE_CHECK(i < nodes_.size(), "cluster node index out of range");
  return *nodes_[i];
}

const ClusterNode& Cluster::node(std::size_t i) const {
  GE_CHECK(i < nodes_.size(), "cluster node index out of range");
  return *nodes_[i];
}

void Cluster::start() {
  for (auto& node : nodes_) {
    node->scheduler_->start();
  }
  // Lifecycle transitions are plain events on the control sim; reserving
  // their keys here -- inside the sharded runner's serial stamp context --
  // makes every transition a deterministic cross-shard barrier event.
  static_assert(static_cast<std::int32_t>(ServerState::kOnline) ==
                    obs::kServerStateOnline &&
                static_cast<std::int32_t>(ServerState::kDraining) ==
                    obs::kServerStateDraining &&
                static_cast<std::int32_t>(ServerState::kOff) ==
                    obs::kServerStateOff &&
                static_cast<std::int32_t>(ServerState::kWaking) ==
                    obs::kServerStateWaking,
                "obs server-state ids must mirror cluster::ServerState");
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    ClusterNode* node = nodes_[s].get();
    if (node->lifecycle_ == nullptr) {
      continue;
    }
    if (obs::Telemetry* tel = sim_->telemetry(); tel != nullptr && tel->trace) {
      obs::TraceBuffer* trace = tel->trace;
      const auto server = static_cast<std::int32_t>(s);
      node->lifecycle_->set_transition_observer(
          [trace, server](double t, ServerState state) {
            obs::TraceEvent ev;
            ev.type = obs::TraceEventType::kServerState;
            ev.t = t;
            ev.core = server;  // server index, not a core
            ev.mode = static_cast<std::int32_t>(state);
            trace->push(ev);
          });
    }
    node->lifecycle_->schedule(*sim_, [this] { flush_pending(); });
  }
}

void Cluster::on_job_arrival(workload::Job* job) {
  if (obs::Telemetry* tel = sim_->telemetry(); tel != nullptr && tel->trace) {
    obs::TraceEvent ev;
    ev.type = obs::TraceEventType::kArrival;
    ev.t = job->arrival;
    ev.job = static_cast<std::int64_t>(job->id);
    ev.a = job->demand;
    ev.b = job->deadline;
    ev.c = static_cast<double>(job->tenant);
    tel->trace->push(ev);
  }
  if (admission_ != nullptr && !admission_(*job)) {
    ++rejected_;
    settle_at_dispatcher(job, job->arrival);
    return;
  }
  if (lifecycle_active_ && !any_dispatchable()) {
    pending_.push_back(job);
    pending_peak_ = std::max(pending_peak_, pending_.size());
    return;
  }
  preroute(job);
  deliver(job);
}

std::size_t Cluster::preroute(workload::Job* job) {
  const std::size_t s = dispatcher_->pick(*job);
  GE_CHECK(s < nodes_.size(), "dispatcher picked a server that does not exist");
  job->server = static_cast<std::int32_t>(s);
  ++nodes_[s]->dispatched_;
  if (nodes_.size() > 1) {
    if (obs::Telemetry* tel = sim_->telemetry(); tel != nullptr && tel->trace) {
      obs::TraceEvent ev;
      ev.type = obs::TraceEventType::kDispatch;
      // now() == arrival for an arrival-time dispatch (bit-exact: the
      // arrival event runs at job->arrival); later for a wake-time flush.
      ev.t = sim_->now();
      ev.job = static_cast<std::int64_t>(job->id);
      ev.core = static_cast<std::int32_t>(s);  // server index, not a core
      ev.a = static_cast<double>(in_flight(s) - 1);  // queue seen at dispatch
      tel->trace->push(ev);
    }
  }
  return s;
}

void Cluster::deliver(workload::Job* job) {
  nodes_[server_of(*job)]->scheduler_->on_job_arrival(job);
}

std::vector<Cluster::Route> Cluster::plan_dispatch(
    std::vector<workload::Job>& jobs) {
  GE_CHECK(is_state_free(dispatcher_->policy()),
           "plan_dispatch needs a state-free dispatch policy");
  GE_CHECK(sim_->telemetry() == nullptr,
           "plan_dispatch would emit trace events out of order");
  GE_CHECK(std::is_sorted(jobs.begin(), jobs.end(),
                          [](const workload::Job& a, const workload::Job& b) {
                            return a.arrival < b.arrival;
                          }),
           "plan_dispatch needs jobs sorted by arrival");

  // The transitions that change dispatchability, in serial event order:
  // start() registers them node by node, each node's in time order, so a
  // stable sort by time reproduces the (time, seq) order.
  struct Flip {
    double at;
    std::size_t node;
    bool online;
  };
  std::vector<Flip> flips;
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    if (nodes_[s]->lifecycle_ == nullptr) continue;
    for (const LifecycleTransition& tr : nodes_[s]->lifecycle_->transitions()) {
      if (tr.kind == LifecycleTransition::Kind::kLeaveService ||
          tr.kind == LifecycleTransition::Kind::kCompleteWake) {
        flips.push_back(
            {tr.at, s, tr.kind == LifecycleTransition::Kind::kCompleteWake});
      }
    }
  }
  std::stable_sort(flips.begin(), flips.end(),
                   [](const Flip& a, const Flip& b) { return a.at < b.at; });

  std::vector<Route> routes(jobs.size(), Route::kArrival);
  planned_online_.assign(nodes_.size(), 1);
  std::size_t online = nodes_.size();
  // The planned pending queue: held job indices in arrival order, plus
  // their deadlines as a min-heap keyed like the serial deadline events.
  std::vector<std::size_t> held;
  using Expiry = std::pair<double, std::size_t>;  // (deadline, job index)
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<>> expiries;
  // Settles every held job whose deadline event precedes the serial event
  // at (t, job index `before`); a transition at t passes `before` = SIZE_MAX
  // since every job event at t precedes it.
  const auto expire = [&](double t, std::size_t before) {
    while (!expiries.empty() &&
           (expiries.top().first < t ||
            (expiries.top().first == t && expiries.top().second < before))) {
      const std::size_t i = expiries.top().second;
      expiries.pop();
      ++expired_in_queue_;
      settle_at_dispatcher(&jobs[i], jobs[i].deadline);
      routes[i] = Route::kSettled;
    }
  };

  constexpr std::size_t kAfterJobs = std::numeric_limits<std::size_t>::max();
  std::size_t next_flip = 0;
  for (std::size_t i = 0; i <= jobs.size(); ++i) {
    const double t = i < jobs.size() ? jobs[i].arrival
                                     : std::numeric_limits<double>::infinity();
    for (; next_flip < flips.size() && flips[next_flip].at < t; ++next_flip) {
      const Flip& flip = flips[next_flip];
      planned_online_[flip.node] = flip.online ? 1 : 0;
      if (!flip.online) {
        --online;
        continue;
      }
      ++online;
      // complete_wake -> flush_pending, at this flip's availability.
      expire(flip.at, kAfterJobs);
      for (const std::size_t h : held) {
        if (!jobs[h].settled) preroute(&jobs[h]);
      }
      held.clear();
      expiries = {};
    }
    if (i == jobs.size()) break;
    workload::Job& job = jobs[i];
    if (admission_ != nullptr && !admission_(job)) {
      ++rejected_;
      settle_at_dispatcher(&job, job.arrival);
      routes[i] = Route::kSettled;
    } else if (online == 0) {
      expire(job.arrival, i);
      held.push_back(i);
      expiries.push({job.deadline, i});
      pending_peak_ = std::max(pending_peak_, expiries.size());
      routes[i] = Route::kHeld;
    } else {
      preroute(&job);
    }
  }
  // No wake left: every job still queued expires at its deadline.
  expire(std::numeric_limits<double>::infinity(), kAfterJobs);
  planned_online_.clear();
  return routes;
}

void Cluster::hold(workload::Job* job) { pending_.push_back(job); }

void Cluster::on_deadline(workload::Job* job) {
  if (job->server == workload::kUnassigned) {
    // Never dispatched: either admission-rejected (already settled) or
    // still waiting at the dispatcher for a wake that came too late.
    if (!job->settled) {
      ++expired_in_queue_;
      auto it = std::find(pending_.begin(), pending_.end(), job);
      GE_CHECK(it != pending_.end(),
               "undispatched unsettled job missing from the pending queue");
      pending_.erase(it);
      settle_at_dispatcher(job, job->deadline);
    }
    return;
  }
  nodes_[server_of(*job)]->scheduler_->on_deadline(job);
}

void Cluster::settle_at_dispatcher(workload::Job* job, double finish_time) {
  GE_CHECK(!job->settled, "dispatcher settling an already-settled job");
  job->settled = true;
  job->finish_time = finish_time;
  // Mirror sched::Scheduler::settle()'s trace event so the watchdog's
  // settlement conservation keeps holding; core stays kUnassigned, which is
  // how downstream analysis recognises a dispatcher-level settlement.
  if (obs::Telemetry* tel = sim_->telemetry(); tel != nullptr && tel->trace) {
    obs::TraceEvent ev;
    ev.type = obs::TraceEventType::kDeadlineMiss;
    ev.t = finish_time;
    ev.job = static_cast<std::int64_t>(job->id);
    ev.core = job->core;
    ev.a = job->executed;
    ev.b = job->demand;
    ev.c = monitored_quality();
    tel->trace->push(ev);
  }
}

void Cluster::flush_pending() {
  while (!pending_.empty()) {
    workload::Job* job = pending_.front();
    pending_.pop_front();
    if (job->settled) continue;  // expired jobs are erased eagerly; belt+braces
    if (job->server == workload::kUnassigned) preroute(job);
    deliver(job);
  }
}

bool Cluster::any_dispatchable() const {
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    if (dispatchable(s)) return true;
  }
  return false;
}

void Cluster::finish() {
  for (auto& node : nodes_) {
    node->scheduler_->finish();
  }
}

std::size_t Cluster::server_of(const workload::Job& job) const {
  GE_CHECK(job.server >= 0 && static_cast<std::size_t>(job.server) < nodes_.size(),
           "job was never dispatched to a server");
  return static_cast<std::size_t>(job.server);
}

std::size_t Cluster::in_flight(std::size_t server) const {
  const ClusterNode& node = *nodes_[server];
  return static_cast<std::size_t>(node.dispatched_ -
                                  node.monitor_->settled_jobs());
}

double Cluster::consumed_energy(std::size_t server) const {
  return nodes_[server]->server_->total_energy();
}

std::size_t Cluster::online_cores(std::size_t server) const {
  return nodes_[server]->server_->online_cores();
}

bool Cluster::dispatchable(std::size_t server) const {
  if (!planned_online_.empty()) return planned_online_[server] != 0;
  const auto& lifecycle = nodes_[server]->lifecycle_;
  return lifecycle == nullptr || lifecycle->dispatchable();
}

double Cluster::total_setup_energy() const {
  double total = 0.0;
  for (const auto& node : nodes_) {
    if (node->lifecycle_ != nullptr) {
      total += node->lifecycle_->setup_energy_j();
    }
  }
  return total;
}

std::uint64_t Cluster::total_wakes() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) {
    if (node->lifecycle_ != nullptr) {
      total += node->lifecycle_->wakes();
    }
  }
  return total;
}

double Cluster::total_energy() const {
  double total = 0.0;
  for (const auto& node : nodes_) {
    total += node->server_->total_energy();
  }
  return total;
}

double Cluster::total_busy_time() const {
  double total = 0.0;
  for (const auto& node : nodes_) {
    total += node->server_->total_busy_time();
  }
  return total;
}

double Cluster::total_power(double t) const {
  double total = 0.0;
  for (const auto& node : nodes_) {
    total += node->server_->total_power(t);
  }
  return total;
}

std::size_t Cluster::total_backlog() const {
  std::size_t total = 0;
  for (const auto& node : nodes_) {
    total += node->scheduler_->backlog();
  }
  return total;
}

int Cluster::busy_cores(double t) const {
  int busy = 0;
  for (const auto& node : nodes_) {
    for (std::size_t i = 0; i < node->server_->core_count(); ++i) {
      busy += node->server_->core(i).busy(t) ? 1 : 0;
    }
  }
  return busy;
}

util::TimeWeightedStats Cluster::aggregate_speed_stats() const {
  util::TimeWeightedStats stats;
  for (const auto& node : nodes_) {
    stats.merge(node->server_->aggregate_speed_stats());
  }
  return stats;
}

double Cluster::monitored_quality() const {
  if (nodes_.size() == 1) {
    return nodes_.front()->monitor_->quality();
  }
  double achieved = 0.0;
  double potential = 0.0;
  for (const auto& node : nodes_) {
    achieved += node->monitor_->achieved_sum();
    potential += node->monitor_->potential_sum();
  }
  return potential > 0.0 ? achieved / potential : 1.0;
}

void Cluster::export_metrics(obs::MetricsRegistry& registry,
                             double elapsed) const {
  registry.gauge("cluster.servers", "servers", obs::Gauge::Merge::kMax)
      .set(static_cast<double>(nodes_.size()));
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    const std::string prefix = "s" + std::to_string(s) + ".";
    const ServerLifecycle* lifecycle = nodes_[s]->lifecycle_.get();
    registry.counter(prefix + "dispatched_jobs", "jobs")
        .add(static_cast<double>(nodes_[s]->dispatched_));
    registry.counter(prefix + "wakes", "wakes")
        .add(lifecycle != nullptr ? static_cast<double>(lifecycle->wakes())
                                  : 0.0);
    registry.counter(prefix + "setup_energy_j", "J")
        .add(lifecycle != nullptr ? lifecycle->setup_energy_j() : 0.0);
    registry.counter(prefix + "offline_s", "s")
        .add(lifecycle != nullptr ? lifecycle->offline_s(elapsed) : 0.0);
    const server::MulticoreServer& server = *nodes_[s]->server_;
    const double busy = server.total_busy_time();
    registry.counter(prefix + "server.energy_j", "J").add(server.total_energy());
    registry.counter(prefix + "server.busy_core_s", "s").add(busy);
    registry.counter(prefix + "server.idle_core_s", "s")
        .add(static_cast<double>(server.core_count()) * elapsed - busy);
    registry.gauge(prefix + "server.online_cores", "cores", obs::Gauge::Merge::kMin)
        .set(static_cast<double>(server.online_cores()));
    for (std::size_t i = 0; i < server.core_count(); ++i) {
      const server::Core& core = server.core(i);
      const std::string core_prefix = prefix + "core." + std::to_string(core.id()) + ".";
      registry.counter(core_prefix + "energy_j", "J").add(core.energy());
      registry.counter(core_prefix + "busy_s", "s").add(core.busy_time());
      registry.counter(core_prefix + "idle_s", "s").add(elapsed - core.busy_time());
    }
  }
}

}  // namespace ge::cluster
