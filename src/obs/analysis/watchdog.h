// Online invariant watchdog: a TraceObserver that checks conservation
// identities live, while the simulation runs, and records failures as
// kViolation trace events -- so a drifting invariant is pinned to the
// simulated instant it first broke instead of only failing post-hoc in
// tests.
//
// Streaming checks (per event):
//   * monotone_clock -- instantaneous events (arrival, round, mode, cut,
//     cap, core_offline, dispatch, assign) must not move backwards in time.
//     Retrospective events are exempt: exec slices are stamped with their
//     slice start when a core catches up, and settlements carry
//     finish_time = min(now, deadline), both legitimately in the past.
//   * exec_span -- a slice must have t_end >= t and name a core the server
//     has (when exact models are supplied).
//   * job_overrun -- a settlement must report executed <= demand (+tol).
//   * cap_budget -- the per-core caps of one scheduling round must sum to
//     at most the server budget (single-server runs only: cap events carry
//     no server id, so cluster cap streams interleave).
//
// End-of-run checks (finish()):
//   * settlement_conservation -- every released job settled exactly once.
//   * dispatch_conservation -- released == sum of per-server dispatches plus
//     settlements that never dispatched (admission rejects and jobs expiring
//     in the dispatcher queue while the whole fleet was offline settle at
//     the dispatch tier and legitimately have no dispatch event).
//   * energy_identity -- per server, the energy integrated from its exec
//     slices matches the server's reported dynamic energy within
//     `energy_rel_tol` (the slices carry the exact accrual terms, so 1e-9
//     relative holds in-process; see docs/OBSERVABILITY.md).
//
// Violations also bump the watchdog.checks / watchdog.violations counters
// when a registry is supplied, so a metrics file shows at a glance whether
// a run was clean.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "power/power_model.h"

namespace ge::obs::analysis {

struct WatchdogOptions {
  // Exact per-server, per-core power models (server-major); required for
  // the energy identity and the exec core-range check.
  std::vector<std::vector<power::PowerModel>> models;
  // Per-server power budgets (W); used by the cap_budget check, which is
  // active only for single-server runs (see above).
  std::vector<double> server_budgets_w;
  double energy_rel_tol = 1e-9;  // energy_identity tolerance (relative)
  double units_tol = 1e-6;       // job_overrun slack, processing units
};

class Watchdog final : public TraceObserver {
 public:
  // Observes `buffer`; the caller attaches it (buffer.set_observer(this))
  // and must detach before destroying the watchdog.  `metrics` may be null.
  Watchdog(TraceBuffer& buffer, WatchdogOptions options,
           MetricsRegistry* metrics);

  void on_event(const TraceEvent& event) override;

  // End-of-run ground truth, supplied by the runner.
  struct Totals {
    std::uint64_t released = 0;
    std::vector<double> server_energy_j;  // reported, per server in order
  };

  // Runs the conservation checks; violations are recorded at time `now`.
  void finish(double now, const Totals& totals);

  std::uint64_t violations() const noexcept { return violations_; }

 private:
  void record(double t, ViolationCheck check, double observed, double expected);
  std::int32_t server_of(std::int64_t job) const;

  TraceBuffer& buffer_;
  WatchdogOptions options_;
  std::uint64_t violations_ = 0;

  double last_instant_t_ = 0.0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t settlements_ = 0;
  std::uint64_t dispatches_ = 0;
  // Settlements of jobs with no dispatch record (dispatcher-tier
  // settlements); folded into the dispatch-conservation identity.
  std::uint64_t undispatched_settlements_ = 0;
  std::vector<std::int32_t> job_server_;  // job id -> server; -1 unknown
  std::vector<std::vector<double>> exec_energy_j_;  // [server][core]
  double round_cap_sum_w_ = 0.0;
  bool in_round_ = false;

  Counter* m_checks_ = nullptr;
  Counter* m_violations_ = nullptr;
};

}  // namespace ge::obs::analysis
