#include "obs/analysis/watchdog.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ge::obs::analysis {
namespace {

// Instantaneous events are emitted at sim.now() and must be nondecreasing in
// buffer order; everything else is retrospective (see watchdog.h).
bool instantaneous(TraceEventType type) {
  switch (type) {
    case TraceEventType::kArrival:
    case TraceEventType::kRound:
    case TraceEventType::kModeSwitch:
    case TraceEventType::kCut:
    case TraceEventType::kCap:
    case TraceEventType::kCoreOffline:
    case TraceEventType::kDispatch:
    case TraceEventType::kAssign:
    case TraceEventType::kServerState:
      return true;
    default:
      return false;
  }
}

constexpr double kTimeTol = 1e-12;

}  // namespace

Watchdog::Watchdog(TraceBuffer& buffer, WatchdogOptions options,
                   MetricsRegistry* metrics)
    : buffer_(buffer), options_(std::move(options)) {
  exec_energy_j_.resize(options_.models.size());
  for (std::size_t s = 0; s < options_.models.size(); ++s) {
    exec_energy_j_[s].assign(options_.models[s].size(), 0.0);
  }
  if (metrics != nullptr) {
    m_checks_ = &metrics->counter("watchdog.checks", "events");
    m_violations_ = &metrics->counter("watchdog.violations", "violations");
  }
}

void Watchdog::record(double t, ViolationCheck check, double observed,
                      double expected) {
  ++violations_;
  if (m_violations_ != nullptr) {
    m_violations_->increment();
  }
  TraceEvent ev;
  ev.type = TraceEventType::kViolation;
  ev.t = t;
  ev.mode = static_cast<std::int32_t>(check);
  ev.a = observed;
  ev.b = expected;
  // Re-enters on_event(), which returns immediately for kViolation.
  buffer_.push(ev);
}

std::int32_t Watchdog::server_of(std::int64_t job) const {
  const auto idx = static_cast<std::size_t>(job);
  if (job >= 0 && idx < job_server_.size() && job_server_[idx] >= 0) {
    return job_server_[idx];
  }
  return 0;  // single-server runs emit no dispatch events
}

void Watchdog::on_event(const TraceEvent& ev) {
  if (ev.type == TraceEventType::kViolation) {
    return;  // our own records (or a test's); never re-checked
  }
  if (m_checks_ != nullptr) {
    m_checks_->increment();
  }

  if (instantaneous(ev.type)) {
    if (ev.t < last_instant_t_ - kTimeTol) {
      record(ev.t, ViolationCheck::kMonotoneClock, ev.t, last_instant_t_);
    }
    last_instant_t_ = std::max(last_instant_t_, ev.t);
  }

  switch (ev.type) {
    case TraceEventType::kArrival:
      ++arrivals_;
      break;
    case TraceEventType::kDispatch: {
      ++dispatches_;
      const auto idx = static_cast<std::size_t>(ev.job);
      if (ev.job >= 0) {
        if (idx >= job_server_.size()) {
          job_server_.resize(idx + 1, -1);
        }
        job_server_[idx] = ev.core;
      }
      break;
    }
    case TraceEventType::kExec: {
      if (ev.t2 < ev.t - kTimeTol) {
        record(ev.t, ViolationCheck::kExecSpan, ev.t2, ev.t);
        break;
      }
      if (exec_energy_j_.empty()) {
        break;  // no models supplied: span order checked, energy skipped
      }
      const auto server = static_cast<std::size_t>(server_of(ev.job));
      if (server >= exec_energy_j_.size() || ev.core < 0 ||
          static_cast<std::size_t>(ev.core) >= exec_energy_j_[server].size()) {
        record(ev.t, ViolationCheck::kExecSpan, static_cast<double>(ev.core),
               static_cast<double>(
                   server < exec_energy_j_.size() ? exec_energy_j_[server].size()
                                                  : 0));
        break;
      }
      const power::PowerModel& pm = options_.models[server][ev.core];
      exec_energy_j_[server][static_cast<std::size_t>(ev.core)] +=
          pm.power(ev.a) * (ev.t2 - ev.t);
      break;
    }
    case TraceEventType::kCompletion:
    case TraceEventType::kDeadlineMiss: {
      ++settlements_;
      const auto idx = static_cast<std::size_t>(ev.job);
      if (ev.job >= 0 && (idx >= job_server_.size() || job_server_[idx] < 0)) {
        ++undispatched_settlements_;  // settled at the dispatch tier
      }
      if (ev.b > 0.0 && ev.a > ev.b * (1.0 + 1e-9) + options_.units_tol) {
        record(ev.t, ViolationCheck::kJobOverrun, ev.a, ev.b);
      }
      break;
    }
    case TraceEventType::kRound:
      // A round's caps follow its round event, so the running sum resets
      // here and is checked incrementally per cap.
      round_cap_sum_w_ = 0.0;
      in_round_ = true;
      break;
    case TraceEventType::kCap: {
      if (!in_round_ || options_.server_budgets_w.size() != 1) {
        break;  // cluster cap streams interleave; identity not checkable
      }
      round_cap_sum_w_ += ev.a;
      const double budget = options_.server_budgets_w[0];
      if (round_cap_sum_w_ > budget * (1.0 + 1e-9) + 1e-6) {
        record(ev.t, ViolationCheck::kCapBudget, round_cap_sum_w_, budget);
        in_round_ = false;  // one violation per round, not per further cap
      }
      break;
    }
    default:
      break;
  }
}

void Watchdog::finish(double now, const Totals& totals) {
  if (settlements_ != totals.released) {
    record(now, ViolationCheck::kSettlementConservation,
           static_cast<double>(settlements_),
           static_cast<double>(totals.released));
  }
  if (dispatches_ > 0 &&
      dispatches_ + undispatched_settlements_ != totals.released) {
    record(now, ViolationCheck::kDispatchConservation,
           static_cast<double>(dispatches_ + undispatched_settlements_),
           static_cast<double>(totals.released));
  }
  const std::size_t servers =
      std::min(exec_energy_j_.size(), totals.server_energy_j.size());
  for (std::size_t s = 0; s < servers; ++s) {
    // Core order matches the server's own accumulation order, so this sum
    // is bit-identical to MulticoreServer::total_energy() for a clean run.
    double integrated = 0.0;
    for (const double e : exec_energy_j_[s]) {
      integrated += e;
    }
    const double reported = totals.server_energy_j[s];
    const double diff = std::abs(integrated - reported);
    const double tol =
        options_.energy_rel_tol * std::max(std::abs(reported), 1.0);
    if (diff > tol) {
      record(now, ViolationCheck::kEnergyIdentity, integrated, reported);
    }
  }
}

}  // namespace ge::obs::analysis
