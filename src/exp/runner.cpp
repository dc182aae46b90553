#include "exp/runner.h"

#include "exp/timeline.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "obs/analysis/watchdog.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "quality/quality_function.h"
#include "quality/quality_monitor.h"
#include "server/multicore_server.h"
#include "sim/shard_exec.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/quantiles.h"
#include "util/stats.h"
#include "workload/generator.h"
#include "workload/job_store.h"

namespace ge::exp {
namespace {

constexpr double kCompleteTol = 1e-6;

// Per-job end-of-life accounting, shared verbatim by the materialised and
// streaming paths.  Bit-identity between the two paths hinges on this being
// the *single* definition of the per-job arithmetic: both feed jobs in id
// order, so the floating-point accumulation sequence is identical.
struct JobAccounting {
  const quality::QualityFunction* f;
  double achieved = 0.0;
  double potential = 0.0;
  util::QuantileCollector responses;

  // Per-tenant accumulators, one per tenant (one on single-tenant runs);
  // the run's outcome counts are their sums.
  struct TenantAcc {
    double achieved = 0.0;
    double potential = 0.0;
    double executed = 0.0;  // sum of min(executed, demand), units
    std::uint64_t released = 0;
    std::uint64_t completed = 0;
    std::uint64_t partial = 0;
    std::uint64_t dropped = 0;
  };
  std::vector<TenantAcc> tenants;

  void account(const workload::Job& job) {
    GE_CHECK(job.settled, "job left unsettled at end of run");
    const double credited = std::min(job.executed, job.demand);
    const double value = f->value(credited);
    const double best = f->value(job.demand);
    achieved += value;
    potential += best;
    GE_CHECK(job.finish_time >= job.arrival - 1e-9, "finish before arrival");
    responses.add((job.finish_time - job.arrival) * 1000.0);
    GE_CHECK(job.tenant >= 0 &&
                 static_cast<std::size_t>(job.tenant) < tenants.size(),
             "job tenant out of range");
    TenantAcc& acc = tenants[static_cast<std::size_t>(job.tenant)];
    acc.achieved += value;
    acc.potential += best;
    acc.executed += credited;
    ++acc.released;
    if (job.executed >= job.demand - kCompleteTol) {
      ++acc.completed;
    } else if (job.executed > kCompleteTol) {
      ++acc.partial;
    } else {
      ++acc.dropped;
    }
  }
};

// The streamed job source (docs/DESIGN.md §9, "Streaming core").  Jobs live
// in a JobStore arena from release to retirement; the generator runs one job
// ahead of the release.  Retirement happens at the deadline event -- the
// last event that can touch a job -- and retired jobs pass through an
// id-ordered reorder buffer into JobAccounting, because random deadline
// windows let a later job's deadline fire before an earlier one's.  The
// buffer holds at most the jobs whose deadline windows overlap (bounded by
// arrival rate x widest window), not the run.
struct JobStream {
  // Keys are reserved for max_jobs jobs, or for 2^33 when uncapped: 2^34
  // keys fit one stamp context's 35-bit counter (src/sim/shard_exec.cpp).
  static constexpr std::uint64_t kUncappedJobs = std::uint64_t{1} << 33;

  workload::JobStore store;
  workload::WorkloadGenerator gen;
  double duration;
  std::uint64_t max_jobs;  // 0: uncapped
  JobAccounting& acct;
  std::optional<workload::Job> staged;  // generated, not yet released
  std::map<std::uint64_t, workload::Job> retired;  // id-ordered reorder buffer
  std::uint64_t next_account = 1;  // generator ids start at 1

  // The quarantine must outlast every scheduler-side reference to a settled
  // job.  GE purges settled pointers at its next round, and the quantum
  // chain bounds the round gap; two quanta leave generous slack.
  JobStream(const ExperimentConfig& cfg, JobAccounting& accounting)
      : store(2.0 * cfg.quantum + 1e-3), gen(cfg.workload_spec()),
        duration(cfg.duration), max_jobs(cfg.max_jobs), acct(accounting) {}

  std::uint64_t reserved_jobs() const { return max_jobs != 0 ? max_jobs : kUncappedJobs; }

  // The job to release after `released` releases, or null once the stream
  // ends.  The stop rules are the generator's: the cap first (no randomness
  // is drawn past it), then arrival >= duration (generate_until).
  const workload::Job* stage(std::uint64_t released) {
    if (released == reserved_jobs()) {
      GE_CHECK(max_jobs != 0, "an uncapped stream outgrew its reserved keys");
      return nullptr;
    }
    staged = gen.next();
    if (staged->arrival >= duration) {
      staged.reset();
    }
    return staged ? &*staged : nullptr;
  }

  // Moves the staged job into the arena, reclaiming lapsed slots first.
  workload::Job* acquire(double now) {
    store.reclaim(now);
    workload::Job* job = store.acquire(*staged);
    staged.reset();
    return job;
  }

  // Retires a job at its deadline; accounts jobs as the buffer allows.
  void retire(workload::Job* job, double now) {
    GE_CHECK(job->settled, "deadline event left the job unsettled");
    retired.emplace(job->id, *job);
    store.retire(job, now);
    while (!retired.empty() && retired.begin()->first == next_account) {
      acct.account(retired.begin()->second);
      retired.erase(retired.begin());
      ++next_account;
    }
  }
};

// Just-in-time release of either job source (docs/DESIGN.md §9).
//
// An eager set-up would push every job's arrival and then its deadline, in
// trace order, before the run starts: the r-th job that needs events
// would get the tie-break keys base + 2r (arrival) and base + 2r + 1
// (deadline).  The release reserves exactly that block and pushes each key
// late.  Every simulator that arrivals run on (an "arrival queue") holds
// only its next arrival; when one fires it pushes the job's deadline onto
// the job's owner, then the queue's next arrival, then runs the arrival's
// action.  Both pushes lie above the executing key (jobs come in arrival
// order and no deadline precedes its arrival), and every key still
// unpushed lies above its chain's pending arrival, so each queue's
// earliest event -- and hence the whole pop sequence -- is the eager one
// while the heap holds only the events of jobs in flight.
//
// The source is a cursor over a trace or a JobStream, which reserves keys
// for every job it may release: unused keys only shift later keys by a
// constant, so a streamed run has the materialised key layout.  Three
// layouts share the chain: a serial run and a sharded run with a
// state-reading dispatch put every job on `sim` and dispatch it at
// arrival; a sharded run with planned dispatch (Cluster::plan_dispatch,
// materialised only) skips settled jobs, keeps held arrivals on `sim` and
// delivers every other job on its owner's shard, one arrival queue per
// simulator.
class JobRelease {
 public:
  using Route = cluster::Cluster::Route;

  // Reserves the keys on `sim` (in stamp mode, the serial context's block)
  // and pushes each queue's first arrival.  Jobs come from `stream`, or if
  // it is null from `jobs`, with `routes` empty or plan_dispatch's plan for
  // them.  Everything referenced must outlive the run.
  JobRelease(std::vector<workload::Job>& jobs, JobStream* stream,
             cluster::Cluster& cluster, sim::Simulator& sim,
             const std::vector<sim::Simulator*>& node_sims, std::vector<Route> routes)
      : jobs_(jobs), stream_(stream), cluster_(cluster), node_sims_(node_sims),
        queues_{&sim} {
    std::uint64_t released = stream != nullptr ? stream->reserved_jobs() : jobs.size();
    if (!routes.empty()) {
      queue_of_.reserve(jobs.size());
      released = 0;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::uint32_t q = kNoEvents;
        if (routes[i] == Route::kHeld) {
          q = 0;
        } else if (routes[i] == Route::kArrival) {
          q = queue_index(node_sims[cluster.server_of(jobs[i])]);
          GE_CHECK(q != 0, "a planned delivery must run on a shard simulator");
        }
        queue_of_.push_back(q);
        released += q != kNoEvents ? 1 : 0;
      }
    }
    base_ = sim.reserve_seqs(2 * released);
    cursors_.resize(queues_.size());
    for (std::uint32_t q = 0; q < queues_.size(); ++q) {
      release_next(q);
    }
  }

  JobRelease(const JobRelease&) = delete;
  JobRelease& operator=(const JobRelease&) = delete;

 private:
  static constexpr std::uint32_t kNoEvents = std::numeric_limits<std::uint32_t>::max();

  // One arrival queue's place in the source.  Only the thread running that
  // queue touches it; the padding keeps shards off each other's lines.
  struct alignas(64) Cursor {
    std::size_t scan = 0;      // next job index to look at
    std::uint64_t passed = 0;  // jobs with events before `scan`
    std::size_t job = 0;       // the job whose arrival is pending
    std::uint64_t rank = 0;    // its position among jobs with events
  };

  std::uint32_t queue_index(sim::Simulator* queue) {
    for (std::uint32_t q = 0; q < queues_.size(); ++q) {
      if (queues_[q] == queue) {
        return q;
      }
    }
    queues_.push_back(queue);
    return static_cast<std::uint32_t>(queues_.size() - 1);
  }

  // Pushes the arrival of queue q's next job, if any is left.
  void release_next(std::uint32_t q) {
    Cursor& c = cursors_[q];
    if (stream_ != nullptr) {
      if (const workload::Job* job = stream_->stage(c.passed)) {
        c.rank = c.passed++;
        push_arrival(q, job->arrival);
      }
      return;
    }
    while (c.scan < jobs_.size()) {
      const std::size_t i = c.scan++;
      const std::uint32_t owner = queue_of_.empty() ? 0 : queue_of_[i];
      if (owner == kNoEvents) {
        continue;
      }
      const std::uint64_t rank = c.passed++;
      if (owner == q) {
        c.job = i;
        c.rank = rank;
        push_arrival(q, jobs_[i].arrival);
        return;
      }
    }
  }

  void push_arrival(std::uint32_t q, double at) {
    queues_[q]->schedule_reserved(at, base_ + 2 * cursors_[q].rank,
                                  [this, q] { fire(q); });
  }

  void fire(std::uint32_t q) {
    const Cursor& c = cursors_[q];
    workload::Job* job =
        stream_ != nullptr ? stream_->acquire(queues_[0]->now()) : &jobs_[c.job];
    sim::Simulator* owner =
        queue_of_.empty() ? queues_[0] : node_sims_[cluster_.server_of(*job)];
    owner->schedule_reserved(job->deadline, base_ + 2 * c.rank + 1, [this, job] {
      cluster_.on_deadline(job);
      if (stream_ != nullptr) {
        stream_->retire(job, queues_[0]->now());
      }
    });
    release_next(q);
    if (queue_of_.empty()) {
      cluster_.on_job_arrival(job);
    } else if (q == 0) {
      cluster_.hold(job);
    } else {
      cluster_.deliver(job);
    }
  }

  std::vector<workload::Job>& jobs_;
  JobStream* stream_;
  cluster::Cluster& cluster_;
  const std::vector<sim::Simulator*>& node_sims_;
  // Arrival queue of each job (kNoEvents: settled at set-up); empty when
  // every job arrives on queues_[0].
  std::vector<std::uint32_t> queue_of_;
  std::vector<sim::Simulator*> queues_;  // [0] is `sim`
  std::vector<Cursor> cursors_;          // one per queue
  std::uint64_t base_ = 0;
};

// Installs the profitability screen (config.h `admission`): reject jobs
// whose required speed demand/window exceeds admission * the nominal
// per-core speed.  A pure function of the job, so the hook is deterministic
// across serial/sharded/streaming execution.
void install_admission(const ExperimentConfig& cfg, cluster::Cluster& cluster) {
  if (cfg.admission <= 0.0) {
    return;
  }
  const double per_core_watts =
      cfg.power_budget / static_cast<double>(cfg.cores);
  const double speed_cap =
      cfg.admission * cfg.power_model().speed_for_power(per_core_watts);
  cluster.set_admission_hook([speed_cap](const workload::Job& job) {
    return job.demand <= speed_cap * job.window();
  });
}

// Per-tenant slices of the run (one slice on a single-tenant run).
std::vector<TenantRunResult> tenant_results(const ExperimentConfig& cfg,
                                            const JobAccounting& acct,
                                            double energy) {
  double executed_total = 0.0;
  for (const JobAccounting::TenantAcc& acc : acct.tenants) {
    executed_total += acc.executed;
  }
  std::vector<TenantRunResult> out(acct.tenants.size());
  for (std::size_t t = 0; t < acct.tenants.size(); ++t) {
    const JobAccounting::TenantAcc& acc = acct.tenants[t];
    TenantRunResult& tr = out[t];
    tr.q_target = cfg.tenant_q_target(t);
    tr.quality = acc.potential > 0.0 ? acc.achieved / acc.potential : 1.0;
    tr.slo_burn = (1.0 - tr.quality) / std::max(1.0 - tr.q_target, 1e-9);
    tr.energy_j =
        executed_total > 0.0 ? energy * (acc.executed / executed_total) : 0.0;
    tr.released = acc.released;
    tr.completed = acc.completed;
    tr.partial = acc.partial;
    tr.dropped = acc.dropped;
  }
  return out;
}

// Post-run aggregation over per-job and per-node state, shared by the
// serial and sharded paths.  Every loop walks jobs in id order and nodes in
// node order, so the floating-point accumulation sequence depends only on
// the final state, not on how the run was executed -- this is what makes
// sharded results bit-identical to serial ones.  Both executors stop the
// clock at `horizon`.
void finalize_results(const ExperimentConfig& cfg, const power::PowerModel& pm,
                      cluster::Cluster& cluster, JobAccounting& acct,
                      double horizon, RunResult& result) {
  result.scheduler = cluster.node(0).scheduler().name();
  result.arrival_rate = cfg.arrival_rate;
  result.duration = cfg.duration;
  result.num_servers = static_cast<std::uint64_t>(cluster.size());
  result.dispatch = cluster.dispatcher().name();
  for (const JobAccounting::TenantAcc& acc : acct.tenants) {
    result.released += acc.released;
    result.completed += acc.completed;
    result.partial += acc.partial;
    result.dropped += acc.dropped;
  }

  result.quality = acct.potential > 0.0 ? acct.achieved / acct.potential : 1.0;
  result.energy = cluster.total_energy();
  result.static_energy = cfg.static_power_per_core *
                         static_cast<double>(cluster.total_cores()) * horizon;
  result.avg_power = cfg.duration > 0.0 ? result.energy / cfg.duration : 0.0;
  util::QuantileCollector& responses = acct.responses;
  if (responses.count() > 0) {
    result.mean_response_ms = responses.mean();
    result.p50_response_ms = responses.quantile(0.50);
    result.p95_response_ms = responses.quantile(0.95);
    result.p99_response_ms = responses.quantile(0.99);
  }

  double aes = 0.0;
  double bq = 0.0;
  for (std::size_t s = 0; s < cluster.size(); ++s) {
    const sched::SchedulerStats stats = cluster.node(s).scheduler().stats(horizon);
    aes += stats.aes_s;
    bq += stats.bq_s;
    result.rounds += stats.rounds;
    result.wf_rounds += stats.wf_rounds;
    result.es_rounds += stats.es_rounds;
  }
  result.aes_fraction = (aes + bq) > 0.0 ? aes / (aes + bq) : 0.0;

  const util::TimeWeightedStats speed = cluster.aggregate_speed_stats();
  result.avg_speed_ghz = pm.ghz(speed.mean());
  const double ghz_scale = 1.0 / (cfg.units_per_ghz * cfg.units_per_ghz);
  result.speed_variance = speed.variance() * ghz_scale;
  result.busy_fraction = cluster.total_busy_time() /
                         (static_cast<double>(cluster.total_cores()) * horizon);
  util::RunningStats core_energy;
  for (std::size_t s = 0; s < cluster.size(); ++s) {
    const server::MulticoreServer& server = cluster.node(s).server();
    for (std::size_t i = 0; i < server.core_count(); ++i) {
      core_energy.add(server.core(i).energy());
    }
  }
  result.energy_cov =
      core_energy.mean() > 0.0 ? core_energy.stddev() / core_energy.mean() : 0.0;

  // One server has zero spread, so its CoVs come out 0.
  util::RunningStats server_energy;
  util::RunningStats server_load;
  for (std::size_t s = 0; s < cluster.size(); ++s) {
    server_energy.add(cluster.node(s).server().total_energy());
    server_load.add(static_cast<double>(cluster.node(s).dispatched()));
  }
  result.server_energy_cov =
      server_energy.mean() > 0.0 ? server_energy.stddev() / server_energy.mean() : 0.0;
  result.server_load_cov =
      server_load.mean() > 0.0 ? server_load.stddev() / server_load.mean() : 0.0;

  result.setup_energy_j = cluster.total_setup_energy();
  result.wakes = cluster.total_wakes();
  result.rejected = cluster.rejected();
  result.expired_in_queue = cluster.expired_in_queue();
  // The offline bound covers the whole trace, so node 0's value is the
  // run's (offline reference schedulers are single-server anyway).
  result.offline_energy_j = cluster.node(0).scheduler().offline_bound_energy();
  // RunResult carries tenant slices only for multi-tenant runs, so
  // single-tenant records keep their shape.
  if (cfg.num_tenants > 1) {
    result.tenants = tenant_results(cfg, acct, result.energy);
  }
}

// End-of-run metrics, one layout for every run (docs/OBSERVABILITY.md,
// goodenough-metrics-v2): every family is emitted, zeros included, so the
// metric-name set does not depend on the configuration.  Servers and
// tenants are always prefixed ("sK.", "tN."), s0 and t0 included.
void export_run_metrics(const ExperimentConfig& cfg, const sim::Simulator& sim,
                        const cluster::Cluster& cluster, const JobAccounting& acct,
                        const workload::JobStore* store, double horizon,
                        const RunResult& result, obs::MetricsRegistry& reg) {
  const auto count = [&reg](const std::string& name, const char* unit,
                            double value) { reg.counter(name, unit).add(value); };
  // Peaks and footprints merge as the largest task.
  const auto peak = [&reg](const char* name, const char* unit, double value) {
    reg.gauge(name, unit, obs::Gauge::Merge::kMax).set(value);
  };
  count("jobs.released", "jobs", static_cast<double>(result.released));
  count("jobs.completed", "jobs", static_cast<double>(result.completed));
  count("jobs.partial", "jobs", static_cast<double>(result.partial));
  count("jobs.dropped", "jobs", static_cast<double>(result.dropped));
  count("jobs.rejected", "jobs", static_cast<double>(result.rejected));
  count("jobs.expired_in_queue", "jobs", static_cast<double>(result.expired_in_queue));
  count("energy.total_j", "J", result.energy);
  count("energy.static_j", "J", result.static_energy);
  count("sim.events_executed", "events", static_cast<double>(sim.executed_events()));
  peak("sim.peak_pending_events", "events",
       static_cast<double>(sim.peak_pending_events()));
  // Worst run quality across merged tasks; the full distribution is in the
  // run.quality histogram.
  reg.gauge("quality.monitored", "ratio", obs::Gauge::Merge::kMin).set(result.quality);
  reg.histogram("run.quality", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
                "ratio")
      .observe(result.quality);
  // The job arena exists only on streamed runs; materialised runs report 0.
  peak("stream.peak_in_flight", "jobs",
       store != nullptr ? static_cast<double>(store->peak_in_flight()) : 0.0);
  peak("stream.arena_slots", "jobs",
       store != nullptr ? static_cast<double>(store->capacity()) : 0.0);
  peak("stream.arena_bytes", "bytes",
       store != nullptr ? static_cast<double>(store->memory_bytes()) : 0.0);
  peak("dispatch.pending_peak", "jobs", static_cast<double>(cluster.pending_peak()));
  count("lifecycle.wakes", "wakes", static_cast<double>(result.wakes));
  count("lifecycle.setup_energy_j", "J", result.setup_energy_j);

  const std::vector<TenantRunResult> tenants = tenant_results(cfg, acct, result.energy);
  peak("workload.tenants", "tenants", static_cast<double>(tenants.size()));
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const TenantRunResult& tr = tenants[t];
    const std::string prefix = "t" + std::to_string(t) + ".";
    count(prefix + "released", "jobs", static_cast<double>(tr.released));
    count(prefix + "completed", "jobs", static_cast<double>(tr.completed));
    count(prefix + "partial", "jobs", static_cast<double>(tr.partial));
    count(prefix + "dropped", "jobs", static_cast<double>(tr.dropped));
    count(prefix + "energy_j", "J", tr.energy_j);
    reg.gauge(prefix + "quality", "ratio", obs::Gauge::Merge::kMin).set(tr.quality);
    reg.gauge(prefix + "slo_burn", "ratio", obs::Gauge::Merge::kMax).set(tr.slo_burn);
  }
  cluster.export_metrics(reg, horizon);
}

// Shards only when nothing requires the single serial event sequence: the
// run must be materialised (planned dispatch routes at set-up over the whole
// job vector, and a stream's arena and reorder buffer are single-threaded)
// and telemetry-free (trace/metric emission order is the serial event
// interleaving, which shards do not reconstruct).  A capped count of 1 --
// including every single-server run -- takes the serial path unchanged.
std::size_t effective_shard_count(const ExperimentConfig& cfg,
                                  bool materialised, bool with_telemetry) {
  if (!materialised || with_telemetry || cfg.shards <= 1) {
    return 1;
  }
  return std::min(cfg.shards, cfg.num_servers);
}

// One experiment end to end: setup -> execute -> finalize, for both job
// sources and both executors.
//
// Job source: `trace == nullptr` selects a JobStream, otherwise a private
// copy of `trace`.  One JobRelease releases either on the same reserved
// tie-break keys, so the event sequence does not depend on the source.
//
// Executor (docs/DESIGN.md §11): with nshards == 1 every event runs on
// `sim`'s serial loop.  Otherwise each contiguous block of servers lives on
// its own shard simulator, `sim` carries setup and the cross-shard events,
// and a ShardExecutor advances the shards on worker threads with a barrier
// at every `sim` event.  Results are bit-identical to the serial loop
// because
//   * setup and every cross-shard event run in the serial stamp context,
//     whose shared counter reproduces the serial push order, so each
//     queue's (time, seq) order is the serial order projected onto it;
//   * a shard's servers interact with nothing outside the shard between
//     cross-shard events, so their state evolution is the serial one;
//   * finalize_results only walks final state, in id / node order.
RunResult run_simulation_impl(const ExperimentConfig& cfg,
                              const SchedulerSpec& spec,
                              const workload::Trace* trace, Timeline* timeline,
                              obs::RunTelemetry* telemetry) {
  cfg.validate();
  const std::size_t nshards =
      effective_shard_count(cfg, trace != nullptr, telemetry != nullptr);
  sim::Simulator sim;
  // Install telemetry before any component is built: cores and schedulers
  // cache their handles at construction.
  obs::Telemetry tel_view;
  if (telemetry != nullptr) {
    tel_view = telemetry->view();
    sim.set_telemetry(&tel_view);
  }
  obs::TraceBuffer* trace_buf = nullptr;
  if (obs::Telemetry* tel = sim.telemetry()) {
    trace_buf = tel->trace;
  }
  const power::PowerModel pm = cfg.power_model();
  const double budget = effective_budget(spec, cfg);
  const std::unique_ptr<quality::QualityFunction> fp = cfg.make_quality_function();
  const quality::QualityFunction& f = *fp;
  const std::vector<cluster::NodeSpec> node_specs = cfg.cluster_node_specs(budget);

  // Node s runs on node_sims[s]: `sim` itself on a serial run, otherwise
  // its shard's simulator, in contiguous server blocks balanced to within
  // one server.
  std::optional<sim::ShardStamper> stamper;
  std::vector<std::unique_ptr<sim::Simulator>> shard_sims;
  std::vector<sim::Simulator*> node_sims(node_specs.size(), &sim);
  if (nshards > 1) {
    stamper.emplace(nshards);
    sim.set_stamp_mode(true);
    for (std::size_t i = 0; i < nshards; ++i) {
      shard_sims.push_back(std::make_unique<sim::Simulator>());
      shard_sims.back()->set_stamp_mode(true);
    }
    for (std::size_t s = 0; s < node_sims.size(); ++s) {
      node_sims[s] = shard_sims[s * nshards / node_sims.size()].get();
    }
  }
  sim::ScopedStampContext setup_scope(stamper ? stamper->serial_context()
                                              : nullptr);

  // Every run is a cluster run; the paper's single server is the one-node
  // cluster with the passthrough dispatcher (bit-identical results -- see
  // src/cluster/cluster.h and the golden test in tests/test_cluster.cpp).
  cluster::Cluster cluster(
      node_specs, f,
      [&spec, &cfg](const sched::SchedulerEnv& env,
                    const power::DiscreteSpeedTable* table) {
        return make_scheduler(spec, env, cfg, table);
      },
      cfg.dispatch, cfg.seed, sim, node_sims);
  install_admission(cfg, cluster);

  // The watchdog observes the trace buffer live, re-deriving each invariant
  // from the same events the analysis layer consumes; violations land in the
  // buffer itself (as kViolation events) plus the watchdog.* counters.
  std::unique_ptr<obs::analysis::Watchdog> watchdog;
  if (telemetry != nullptr && telemetry->want_watchdog && trace_buf != nullptr) {
    obs::analysis::WatchdogOptions wopts;
    for (const cluster::NodeSpec& node : node_specs) {
      wopts.models.push_back(node.core_models);
      wopts.server_budgets_w.push_back(node.power_budget);
    }
    watchdog = std::make_unique<obs::analysis::Watchdog>(*trace_buf, wopts,
                                                         &telemetry->metrics);
    trace_buf->set_observer(watchdog.get());
  }

  RunResult result;
  JobAccounting acct{&f, 0.0, 0.0, {}, {}};
  acct.tenants.resize(cfg.num_tenants);

  // The job source: a private, mutable copy of the trace (addresses stable
  // for the run), accounted after the run in id order, or a JobStream, which
  // accounts each job as its reorder buffer drains in id order.
  //
  // A sharded run with a state-free dispatch policy takes every dispatch
  // decision at setup: admission is a pure function of the job and the
  // lifecycle windows are known up front, so Cluster::plan_dispatch replays
  // the serial pick sequence exactly.  A rejected or in-queue-expired job
  // then needs no event, a job dispatched at arrival lives on its server's
  // shard, and only a job arriving to a dark fleet keeps its arrival on
  // `sim`, queued for the wake that delivers it.  State-reading policies
  // (JSQ, least-energy) must observe the fleet as the serial run would, so
  // their arrivals and deadlines stay on `sim` as barrier events.
  std::vector<workload::Job> jobs;
  std::optional<JobStream> stream;
  std::vector<cluster::Cluster::Route> routes;
  if (trace != nullptr) {
    jobs = trace->jobs();
    if (nshards > 1 && cluster::is_state_free(cfg.dispatch)) {
      routes = cluster.plan_dispatch(jobs);
    }
  } else {
    stream.emplace(cfg, acct);
  }
  JobRelease release(jobs, stream ? &*stream : nullptr, cluster, sim, node_sims,
                     std::move(routes));

  if (cfg.verify_power) {
    // Sample total power on a grid; no server may exceed its own budget.
    // Reads every server: a cross-shard event, exact at the barrier.
    const double step = 0.01;
    for (double t = step; t < cfg.duration + cfg.deadline_interval_max; t += step) {
      sim.schedule_at(t, [&cluster, &sim] {
        for (std::size_t s = 0; s < cluster.size(); ++s) {
          const server::MulticoreServer& server = cluster.node(s).server();
          GE_CHECK(server.total_power(sim.now()) <=
                       server.power_budget() * (1.0 + 1e-6) + 1e-6,
                   "total power exceeded the budget");
        }
      });
    }
  }

  if (cfg.failure_time >= 0.0 && cfg.failure_cores > 0) {
    sim.schedule_at(cfg.failure_time, [&cluster, &sim, &cfg] {
      // Failures hit the highest-indexed cores of the highest-indexed server
      // (validate() guarantees it has enough cores).
      server::MulticoreServer& server = cluster.node(cluster.size() - 1).server();
      const std::size_t n = server.core_count();
      for (std::size_t i = n - cfg.failure_cores; i < n; ++i) {
        server.core(i).set_offline(sim.now());
      }
    });
  }

  // Drain: all deadlines fall within duration + the widest deadline window.
  const double horizon = cfg.duration + cfg.deadline_interval_max + 2.0 * cfg.quantum;

  if (timeline != nullptr) {
    GE_CHECK(timeline->interval > 0.0, "timeline interval must be positive");
    // Mode comes from node 0's scheduler; with GE on every node they switch
    // on their own feedback, and node 0 is the representative trace.
    for (double t = timeline->interval; t < horizon; t += timeline->interval) {
      sim.schedule_at(t, [&cluster, &sim, timeline] {
        TimelinePoint point;
        point.time = sim.now();
        point.total_power = cluster.total_power(point.time);
        point.quality = cluster.monitored_quality();
        point.busy_cores = cluster.busy_cores(point.time);
        point.backlog = cluster.total_backlog();
        point.mode = cluster.node(0).scheduler().stats(point.time).mode;
        timeline->points.push_back(point);
      });
    }
  }

  {
    obs::ScopedTimer run_timer(
        tel_view.profile != nullptr ? &tel_view.profile->sim_run : nullptr);
    cluster.start();
    if (stamper) {
      std::vector<sim::Simulator*> shard_ptrs;
      for (const std::unique_ptr<sim::Simulator>& shard : shard_sims) {
        shard_ptrs.push_back(shard.get());
      }
      sim::ShardExecutor(sim, std::move(shard_ptrs), *stamper).run(horizon);
    } else {
      sim.run_until(horizon);
    }
    cluster.finish();
  }

  if (stream) {
    // Everything released must have retired (every deadline precedes the
    // horizon) and drained through the reorder buffer in id order.
    GE_CHECK(!stream->staged.has_value(), "staged arrival never released");
    GE_CHECK(stream->retired.empty(), "retired jobs stuck in the reorder buffer");
    GE_CHECK(stream->store.in_flight() == 0, "jobs still in flight after drain");
  } else {
    for (const workload::Job& job : jobs) {
      acct.account(job);
    }
  }
  finalize_results(cfg, pm, cluster, acct, horizon, result);

  if (watchdog != nullptr) {
    obs::analysis::Watchdog::Totals totals;
    totals.released = result.released;
    for (std::size_t s = 0; s < cluster.size(); ++s) {
      totals.server_energy_j.push_back(cluster.node(s).server().total_energy());
    }
    watchdog->finish(sim.now(), totals);
    trace_buf->set_observer(nullptr);
  }

  if (telemetry != nullptr) {
    export_run_metrics(cfg, sim, cluster, acct, stream ? &stream->store : nullptr,
                       horizon, result, telemetry->metrics);
  }
  return result;
}

}  // namespace

RunResult run_simulation(const ExperimentConfig& cfg, const SchedulerSpec& spec) {
  if (cfg.stream) {
    return run_simulation_stream(cfg, spec);
  }
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration, cfg.max_jobs);
  return run_simulation(cfg, spec, trace);
}

RunResult run_simulation_stream(const ExperimentConfig& cfg,
                                const SchedulerSpec& spec, Timeline* timeline,
                                obs::RunTelemetry* telemetry) {
  return run_simulation_impl(cfg, spec, nullptr, timeline, telemetry);
}

RunResult run_simulation(const ExperimentConfig& cfg, const SchedulerSpec& spec,
                         const workload::Trace& trace, Timeline* timeline,
                         obs::RunTelemetry* telemetry) {
  GE_CHECK(!cfg.stream,
           "cfg.stream is set but a materialised trace was supplied; use "
           "run_simulation_stream (or run_simulation without a trace)");
  return run_simulation_impl(cfg, spec, &trace, timeline, telemetry);
}

}  // namespace ge::exp
