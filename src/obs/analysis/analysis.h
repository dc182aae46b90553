// Trace analytics: derived views over a run's TraceBuffer.
//
// The raw trace answers "what happened"; this module answers "where did the
// energy go" and "which phase of a job's lifecycle ate its slack".  From one
// task's event stream analyze_task() derives:
//
//   * per-job lifecycle spans -- release (arrival) -> GE-round admission
//     (assign) -> first executed slice -> settlement, with the wait /
//     service / response / slack breakdown in milliseconds;
//   * per-core speed residency histograms -- busy seconds and energy per
//     DVFS/speed bin, integrated from the exec slices.  Exec events carry
//     exactly the (speed, duration) terms the cores accumulated energy
//     from, and this module adds them per core in event order, so the
//     integrated total reproduces the run's reported dynamic energy
//     bit-for-bit when the analysis runs in-process (a --trace JSONL
//     file's %.12g round trip costs ~1e-12 relative per term; see
//     docs/OBSERVABILITY.md "Analysis & reports");
//   * queue-length / in-flight / power timelines, per server, on a fixed
//     grid of bins;
//   * conservation tallies (dispatches per server, settlement outcomes,
//     recorded watchdog violations).
//
// Everything here is a pure function of the event sequence plus the power
// models, so analyses inherit the engine's determinism contract: the same
// trace yields byte-identical reports for any --jobs value.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.h"
#include "power/power_model.h"

namespace ge::obs::analysis {

struct AnalysisOptions {
  // Residency histogram bin width in GHz (bin k covers [k*w, (k+1)*w)).
  double speed_bin_ghz = 0.2;
  // Number of timeline bins the run is divided into.
  std::size_t timeline_bins = 60;
};

// One task's trace plus the context needed to price its exec slices.
struct TaskInput {
  TraceTaskInfo info;
  const TraceBuffer* buffer = nullptr;
  // Exact per-server, per-core power models (server-major), as built by
  // ExperimentConfig::cluster_node_specs().
  std::vector<std::vector<power::PowerModel>> models;
  // Used for every core when `models` is empty (the file-reader path, where
  // per-core heterogeneity is not recoverable from the trace); ge_report
  // fills it from the meta record's power_model parameters.
  power::PowerModel fallback_model;
  // The run's reported dynamic energy (RunResult::energy); < 0 = unknown
  // (file-reader path without a metrics file).
  double reported_energy_j = -1.0;
  // Per-tenant Q_GE targets (ExperimentConfig::tenant_q_target); copied
  // verbatim into TenantStats::q_ge for the report.  Empty = unknown (the
  // file-reader path) -- tenant rows then carry q_ge = -1.
  std::vector<double> tenant_q_ge;
};

// Lifecycle of one job as seen through its trace events.  Times are absolute
// simulated seconds; -1 marks a phase that never happened (a dropped job has
// no first_exec, a job admitted mid-queue-policy run has no assign event).
struct JobSpan {
  std::int64_t id = -1;
  std::int32_t server = 0;
  std::int32_t core = -1;
  std::int32_t tenant = 0;  // from the arrival event; 0 on single-tenant runs
  double arrival = -1.0;
  double assigned = -1.0;    // first GE-round admission (kAssign)
  double first_exec = -1.0;  // start of the first executed slice
  double settled = -1.0;     // completion or deadline-miss settlement
  double deadline = -1.0;
  double demand = 0.0;    // units
  double executed = 0.0;  // units, as reported at settlement
  double energy_j = 0.0;  // integrated over this job's exec slices
  bool missed = false;    // settled by a kDeadlineMiss event

  // Derived phases (ms); -1 when an endpoint is missing.
  double wait_ms() const noexcept {       // release -> admission
    return (arrival >= 0.0 && assigned >= 0.0) ? (assigned - arrival) * 1e3 : -1.0;
  }
  double service_ms() const noexcept {    // first slice -> settlement
    return (first_exec >= 0.0 && settled >= 0.0) ? (settled - first_exec) * 1e3
                                                 : -1.0;
  }
  double response_ms() const noexcept {   // release -> settlement
    return (arrival >= 0.0 && settled >= 0.0) ? (settled - arrival) * 1e3 : -1.0;
  }
  double slack_ms() const noexcept {      // settlement -> deadline
    return (settled >= 0.0 && deadline >= 0.0) ? (deadline - settled) * 1e3 : -1.0;
  }
};

// Busy time and energy inside one speed bin of one core.
struct ResidencyBin {
  std::int32_t bin = 0;  // covers [bin*w, (bin+1)*w) GHz
  double busy_s = 0.0;
  double energy_j = 0.0;
};

struct CoreResidency {
  std::int32_t server = 0;
  std::int32_t core = 0;
  std::vector<ResidencyBin> bins;  // ascending bin index, empty bins omitted
  double busy_s = 0.0;
  double energy_j = 0.0;  // accumulated in event order (bit-exact, see above)
};

// Summary statistics of one lifecycle phase over the jobs that had it.
struct PhaseStats {
  std::size_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

// Per-server time series on the shared bin grid (bin i covers
// (bin_end[i] - bin_width, bin_end[i]]).  waiting/in_flight are sampled at
// each bin's end instant; busy_cores/power_w are bin averages integrated
// from the exec slices.
struct ServerTimeline {
  std::int32_t server = 0;
  std::vector<double> waiting;     // released, not yet admitted or settled
  std::vector<double> in_flight;   // released, not yet settled
  std::vector<double> busy_cores;  // mean cores executing during the bin
  std::vector<double> power_w;     // mean dynamic power during the bin
  // Monitored quality sampled at each bin's end instant: the last quality
  // carried by a settlement on this server (1.0 before the first).  Feeds
  // the dashboard's quality timeline; not part of timeline.csv.
  std::vector<double> quality;
};

// Per-tenant outcome tally, derived from the tenant id on arrival events.
// Quality-weighted metrics (SLO burn) need the run's quality function and
// live in RunResult / the `tN.` metric prefixes; this view covers what the
// trace alone can prove: counts, work units, and attributed exec energy.
struct TenantStats {
  std::int32_t tenant = 0;
  double q_ge = -1.0;  // target from TaskInput::tenant_q_ge; -1 = unknown
  std::uint64_t released = 0;
  std::uint64_t completed = 0;
  std::uint64_t partial = 0;
  std::uint64_t dropped = 0;
  std::uint64_t missed = 0;
  double executed_units = 0.0;  // sum of min(executed, demand)
  double demand_units = 0.0;
  double energy_j = 0.0;  // sum of the tenant's jobs' exec-slice energy
};

struct TaskAnalysis {
  TraceTaskInfo info;
  std::size_t num_servers = 1;

  // Jobs in arrival order.
  std::vector<JobSpan> jobs;
  std::uint64_t released = 0;
  std::uint64_t completed = 0;  // executed >= demand (1e-6 units tolerance)
  std::uint64_t partial = 0;
  std::uint64_t dropped = 0;
  std::uint64_t missed = 0;  // settled by deadline-miss

  PhaseStats wait, service, response, slack;

  // Per-tenant tallies, ascending tenant id; empty on single-tenant runs
  // (every arrival carried tenant 0 and no targets were supplied), keeping
  // single-tenant reports byte-identical.
  std::vector<TenantStats> tenants;

  // Residency, (server, core) ascending; cores with no exec slices omitted.
  std::vector<CoreResidency> residency;
  double integrated_energy_j = 0.0;  // sum over residency entries, in order
  double reported_energy_j = -1.0;   // copied from the input; < 0 = unknown
  // |integrated - reported| / max(|reported|, tiny); -1 when unknown.
  double energy_rel_err = -1.0;

  std::uint64_t rounds = 0;
  std::uint64_t mode_switches = 0;
  std::uint64_t cuts = 0;
  std::vector<TraceEvent> violations;  // kViolation events, in order

  // Per-server tallies (size num_servers; single-server runs have one entry
  // with dispatched == released).
  std::vector<std::uint64_t> dispatched;
  std::vector<double> server_energy_j;

  double bin_width = 0.0;
  std::vector<double> bin_end;  // shared bin-end times, ascending
  std::vector<ServerTimeline> timelines;  // one per server

  // kServerState events in buffer order (lifecycle runs only; empty
  // otherwise).  ev.core = server index, ev.mode = state id.  Feeds the
  // dashboard's lifecycle bands.
  std::vector<TraceEvent> server_states;
};

TaskAnalysis analyze_task(const TaskInput& input,
                          const AnalysisOptions& options = {});

}  // namespace ge::obs::analysis
