#include "cluster/lifecycle.h"

#include "util/check.h"

namespace ge::cluster {

const char* to_string(ServerState state) noexcept {
  switch (state) {
    case ServerState::kOnline:
      return "online";
    case ServerState::kDraining:
      return "draining";
    case ServerState::kOff:
      return "off";
    case ServerState::kWaking:
      return "waking";
  }
  return "?";
}

void LifecycleSpec::validate() const {
  GE_CHECK(setup_energy_j >= 0.0, "lifecycle: setup_energy_j must be >= 0");
  GE_CHECK(wake_latency_s >= 0.0, "lifecycle: wake_latency_s must be >= 0");
  GE_CHECK(drain_grace_s >= 0.0, "lifecycle: drain_grace_s must be >= 0");
  double prev_end = -1.0;  // previous window's on_at; < 0 before the first
  for (const AvailabilityWindow& w : windows) {
    GE_CHECK(w.off_at >= 0.0, "lifecycle: window off_at must be >= 0");
    GE_CHECK(w.on_at > w.off_at, "lifecycle: window on_at must be > off_at");
    GE_CHECK(w.off_at > prev_end,
             "lifecycle: windows must be sorted and non-overlapping");
    if (prev_end >= 0.0) {
      // The server only returns to service at on_at + wake_latency_s; a
      // window starting inside that wake would power off a WAKING server.
      GE_CHECK(w.off_at >= prev_end + wake_latency_s,
               "lifecycle: window starts before the previous wake completes");
    }
    prev_end = w.on_at;
  }
}

ServerLifecycle::ServerLifecycle(LifecycleSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  using Kind = LifecycleTransition::Kind;
  for (const AvailabilityWindow& w : spec_.windows) {
    transitions_.push_back({w.off_at, Kind::kLeaveService});
    if (spec_.drain_grace_s > 0.0 && w.off_at + spec_.drain_grace_s < w.on_at) {
      transitions_.push_back({w.off_at + spec_.drain_grace_s, Kind::kPowerOff});
    }
    if (spec_.wake_latency_s > 0.0) {
      transitions_.push_back({w.on_at, Kind::kBeginWake});
    }
    transitions_.push_back({w.on_at + spec_.wake_latency_s, Kind::kCompleteWake});
  }
}

double ServerLifecycle::offline_s(double now) const noexcept {
  double total = offline_accum_s_;
  if (offline_since_ >= 0.0 && now > offline_since_) {
    total += now - offline_since_;
  }
  return total;
}

void ServerLifecycle::schedule(sim::Simulator& sim,
                               std::function<void()> on_online) {
  on_online_ = std::move(on_online);
  if (transition_observer_) {
    // Announce the initial state so a trace reader can band the timeline
    // from t=0 without special-casing the first window.
    transition_observer_(0.0, state_);
  }
  // Capturing the index keeps each closure inside std::function's inline
  // buffer.
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    sim.schedule_at(transitions_[i].at, [this, i] { apply(transitions_[i]); });
  }
}

void ServerLifecycle::enter(double now, ServerState next) {
  state_ = next;
  if (transition_observer_) {
    transition_observer_(now, next);
  }
}

void ServerLifecycle::apply(const LifecycleTransition& transition) {
  switch (transition.kind) {
    case LifecycleTransition::Kind::kLeaveService:
      return leave_service(transition.at);
    case LifecycleTransition::Kind::kPowerOff:
      return power_off(transition.at);
    case LifecycleTransition::Kind::kBeginWake:
      return begin_wake(transition.at);
    case LifecycleTransition::Kind::kCompleteWake:
      return complete_wake(transition.at);
  }
}

void ServerLifecycle::leave_service(double now) {
  GE_CHECK(state_ == ServerState::kOnline,
           "lifecycle: leave_service from a non-online state");
  enter(now, spec_.drain_grace_s > 0.0 ? ServerState::kDraining
                                       : ServerState::kOff);
  offline_since_ = now;
}

void ServerLifecycle::power_off(double now) {
  GE_CHECK(state_ == ServerState::kDraining,
           "lifecycle: power_off without draining first");
  enter(now, ServerState::kOff);
}

void ServerLifecycle::begin_wake(double now) {
  GE_CHECK(state_ != ServerState::kOnline,
           "lifecycle: begin_wake while online");
  enter(now, ServerState::kWaking);
}

void ServerLifecycle::complete_wake(double now) {
  GE_CHECK(state_ != ServerState::kOnline,
           "lifecycle: complete_wake while online");
  enter(now, ServerState::kOnline);
  ++wakes_;
  setup_energy_accum_j_ += spec_.setup_energy_j;
  if (offline_since_ >= 0.0) {
    offline_accum_s_ += now - offline_since_;
    offline_since_ = -1.0;
  }
  if (on_online_) on_online_();
}

}  // namespace ge::cluster
