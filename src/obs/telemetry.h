// Telemetry façade: the single pointer instrumented components test.
//
// A RunTelemetry owns one simulation run's MetricsRegistry and TraceBuffer;
// run_simulation hangs a non-owning Telemetry view of it on the Simulator,
// and every component that already holds the simulator (cores, schedulers,
// the runner itself) reaches telemetry through sim->telemetry().
//
// Cost model: with telemetry off the pointer is null and every hook is one
// predictable branch (components cache the metric handles they use at
// construction time, so the off path never touches the registry).  That
// branch is within noise of no hooks at all (docs/OBSERVABILITY.md,
// "Overhead").
#pragma once

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace ge::obs {

// Non-owning view handed to instrumented components.  Any pointer may be
// null independently (metrics-only runs skip trace recording, profiling is
// opt-in, and so on).
struct Telemetry {
  MetricsRegistry* metrics = nullptr;
  TraceBuffer* trace = nullptr;
  Profiler* profile = nullptr;
};

// Per-run telemetry storage, created by the experiment engine (one per
// RunTask) or by a direct run_simulation caller.
struct RunTelemetry {
  MetricsRegistry metrics;
  TraceBuffer trace;
  bool want_trace = true;      // false: metrics-only, skip event recording
  // true: run_simulation attaches an analysis::Watchdog to the trace buffer
  // for the run (requires want_trace; violations become kViolation events
  // and watchdog.* metrics).
  bool want_watchdog = false;
  std::unique_ptr<Profiler> profiler;  // non-null after enable_profiling()

  // Creates the profiler (and its prof.* counters); idempotent.  Must run
  // before the simulation so the counters keep a stable creation-order slot.
  void enable_profiling() {
    if (profiler == nullptr) {
      profiler = std::make_unique<Profiler>(metrics);
    }
  }

  Telemetry view() noexcept {
    return Telemetry{&metrics, want_trace ? &trace : nullptr, profiler.get()};
  }
};

// What the telemetry flags (--trace / --trace-format / --metrics / --report
// / --watchdog / --profile) request; carried in exp::ExecutionOptions and
// honoured by the experiment engine.
struct TelemetryOptions {
  std::string trace_path;    // empty = no trace file
  TraceFormat trace_format = TraceFormat::kJsonl;
  std::string metrics_path;  // empty = no metrics file
  std::string report_dir;    // empty = no derived-analysis report directory
  bool watchdog = false;     // online invariant watchdog during every run
  bool profile = false;      // wall-clock kernel spans (nondeterministic!)

  bool enabled() const noexcept {
    return !trace_path.empty() || !metrics_path.empty() ||
           !report_dir.empty() || watchdog || profile;
  }
};

}  // namespace ge::obs
