// Simulation runner: wires workload -> scheduler -> server -> metrics and
// executes one experiment end to end.
//
// Jobs come from one of two sources.  A materialised Trace is generated up
// front, so every scheduler compared at the same sweep point sees
// byte-identical randomness; the streaming source (cfg.stream) generates
// jobs on the fly into an arena instead.  One release chain pushes either
// source's arrivals and deadlines just in time on tie-break keys reserved
// at set-up, so both run the same event sequence.  The events then run on
// one of two executors: the serial event loop, or -- for a materialised, telemetry-free
// run with cfg.shards > 1 -- a sharded loop that advances contiguous server
// blocks on worker threads (docs/DESIGN.md §11).  Every combination gives
// bit-identical results.  The run releases arrivals for `duration` seconds,
// drains until every released job settles (each job has a deadline event,
// so the drain is bounded by the deadline window), and then aggregates the
// paper's metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/scheduler_spec.h"
#include "workload/trace.h"

namespace ge::obs {
struct RunTelemetry;
}

namespace ge::exp {

// Per-tenant slice of a multi-tenant run (RunResult::tenants).  Quality is
// the tenant's own achieved/potential ratio; `slo_burn` is the share of the
// tenant's error budget consumed, (1 - quality) / (1 - q_target) -- burn
// above 1 means the tenant's Q_GE SLO was violated.  `energy_j` attributes
// the run's dynamic energy by the tenant's share of executed units.
struct TenantRunResult {
  double q_target = 0.0;
  double quality = 1.0;
  double slo_burn = 0.0;
  double energy_j = 0.0;
  std::uint64_t released = 0;
  std::uint64_t completed = 0;
  std::uint64_t partial = 0;
  std::uint64_t dropped = 0;
};

struct RunResult {
  std::string scheduler;
  double arrival_rate = 0.0;
  double duration = 0.0;  // arrival horizon (s)

  // Paper metrics.
  double quality = 1.0;        // sum f(c_j) / sum f(p_j) over all released jobs
  double energy = 0.0;         // total dynamic energy (J)
  double static_energy = 0.0;  // m * static_power_per_core * elapsed (J)
  double avg_power = 0.0;      // dynamic energy / duration (W)

  // Response-time metrics (ms): time from arrival to the response leaving
  // the system (completion of the cut target, or the deadline).
  double mean_response_ms = 0.0;
  double p50_response_ms = 0.0;
  double p95_response_ms = 0.0;
  double p99_response_ms = 0.0;
  double aes_fraction = 0.0;   // share of time in AES mode (Fig. 1)
  double avg_speed_ghz = 0.0;  // time-weighted busy-core speed (Fig. 6a)
  double speed_variance = 0.0; // time-weighted busy-speed variance (Fig. 6b)

  // Outcome counts.
  std::uint64_t released = 0;
  std::uint64_t completed = 0;  // executed >= demand (full quality)
  std::uint64_t partial = 0;    // 0 < executed < demand
  std::uint64_t dropped = 0;    // executed == 0

  // Scheduler diagnostics (zero for non-GE algorithms).
  std::uint64_t rounds = 0;
  std::uint64_t wf_rounds = 0;
  std::uint64_t es_rounds = 0;

  double busy_fraction = 0.0;  // busy core-time / (m * elapsed)
  // Coefficient of variation of per-core energy (stddev / mean): 0 = perfect
  // balance.  Quantifies assignment imbalance (see abl_assignment).
  double energy_cov = 0.0;

  // Cluster shape (the paper's single-server setup reports 1 / "single").
  std::uint64_t num_servers = 1;
  std::string dispatch = "single";
  // Cross-server imbalance, 0 when num_servers == 1: CoV of per-server
  // dynamic energy and of per-server dispatched-job counts.
  double server_energy_cov = 0.0;
  double server_load_cov = 0.0;

  // Server lifecycle (cluster/lifecycle.h); all zero on always-on runs.
  // Setup energy is accounted separately from `energy` so the exec-span
  // energy identity (watchdog / ge_report) stays exact; add them for a
  // total-cost view.
  double setup_energy_j = 0.0;
  std::uint64_t wakes = 0;
  // Jobs settled at the dispatch tier with zero work: rejected by the
  // admission hook, or expired while queued waiting for a wake.  Both are
  // included in `released` (and almost always in `dropped`).
  std::uint64_t rejected = 0;
  std::uint64_t expired_in_queue = 0;

  // Clairvoyant offline energy lower bound (J) -- populated only by offline
  // reference schedulers (YDS); < 0 means "not computed".
  double offline_energy_j = -1.0;

  // Reclaim advisor (obs/analysis/reclaim.h): the minimum energy a
  // clairvoyant re-speed of the *realised* work could have spent under the
  // same deadlines.  Populated only when the run executed under --report
  // (the advisor replays the trace buffer); < 0 means "not computed".
  // Invariant when computed: offline <= energy_j <= disc_j <= `energy`.
  double reclaim_energy_j = -1.0;   // continuous-speed re-speed (J)
  double reclaim_disc_j = -1.0;     // re-speed priced through the DVFS ladder
  double reclaim_offline_j = -1.0;  // pooled fleet-wide fluid lower bound

  // Per-tenant slices, one per tenant when the workload is multi-tenant;
  // empty on single-tenant runs (keeping their reports byte-identical).
  std::vector<TenantRunResult> tenants;
};

// Runs the scheduler on a fresh synthetic trace derived from cfg.  When
// cfg.stream is set, forwards to run_simulation_stream (no materialised
// trace).
RunResult run_simulation(const ExperimentConfig& cfg, const SchedulerSpec& spec);

// Streaming replay: generates jobs on the fly into a JobStore arena instead
// of materialising the trace, so resident memory tracks jobs in flight
// rather than jobs ever released, plus the exact response-time quantiles'
// 8 bytes per settled job (util::QuantileCollector's blocks: 8 MB for a
// 10^6-job run; p50/p95/p99 are pinned to the bit, so no sketch).  The jobs
// are released on the keys the materialised run reserves, so the run is
// the same event sequence: results, trace and metrics (bar the stream.*
// gauges) are bit-identical on the same cfg; cfg.max_jobs bounds the
// released-job count.
struct Timeline;
RunResult run_simulation_stream(const ExperimentConfig& cfg,
                                const SchedulerSpec& spec,
                                Timeline* timeline = nullptr,
                                obs::RunTelemetry* telemetry = nullptr);

// Runs the scheduler on a caller-provided trace (shared across schedulers).
// A non-null `timeline` is sampled every `timeline->interval` seconds (the
// interval must be positive).  A non-null `telemetry` records metrics and,
// if telemetry->want_trace, trace events; the registry and buffer are
// filled per run, and callers (the experiment engine) merge them across
// runs in task order so output stays deterministic.  See
// docs/OBSERVABILITY.md for the schema.
RunResult run_simulation(const ExperimentConfig& cfg, const SchedulerSpec& spec,
                         const workload::Trace& trace,
                         Timeline* timeline = nullptr,
                         obs::RunTelemetry* telemetry = nullptr);

}  // namespace ge::exp
