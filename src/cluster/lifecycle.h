// Server lifecycle: availability as a first-class state machine.
//
// Real fleets are not always-on.  Servers leave for maintenance windows,
// power-cycle to reclaim idle energy (Aupy et al., "Reclaiming the energy
// of a schedule"), or -- in volunteer/edge fleets -- simply become
// unavailable.  A ServerLifecycle drives one server through
//
//     ONLINE -> DRAINING -> OFF -> WAKING -> ONLINE -> ...
//
// along a precomputed list of unavailability windows.  ONLINE is the only
// state in which the dispatcher may route new work to the server
// (DRAINING finishes residual jobs but accepts nothing new; OFF and
// WAKING accept nothing).  Waking is not free: each completed wake takes
// `wake_latency_s` of latency and charges `setup_energy_j` of setup
// energy, accounted separately from the dynamic execution energy so the
// exec-slice energy identity (watchdog / ge_report cross-check) keeps
// holding bit-exactly.
//
// Determinism: every transition is computed up front from the spec
// (transitions()) -- schedule() registers them as plain simulator events,
// so lifecycle runs inherit the engine's bit-identity contract.  Because
// the list is known at setup, so is every server's dispatchability at any
// instant: a sharded run with a state-free dispatch policy replays the
// serial pick sequence against it before the run starts
// (Cluster::plan_dispatch), and only the transitions themselves -- a few
// per window -- stay cross-shard barrier events, scheduled in the serial
// stamp context (docs/DESIGN.md §11).  The windows themselves come from
// the experiment config: either an explicit fleet-wide window or
// per-server churn traces drawn from a dedicated RNG stream
// (ExperimentConfig::cluster_node_specs).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"

namespace ge::cluster {

enum class ServerState : std::uint8_t {
  kOnline,    // dispatchable, executing
  kDraining,  // finishing residual jobs; no new dispatches
  kOff,       // powered down; no new dispatches
  kWaking,    // paying the wake latency; no new dispatches yet
};

// "online", "draining", "off", "waking".
const char* to_string(ServerState state) noexcept;

// One unavailability window: the server leaves service at `off_at` and
// begins waking at `on_at` (it is dispatchable again wake_latency later).
struct AvailabilityWindow {
  double off_at = 0.0;
  double on_at = 0.0;
};

struct LifecycleSpec {
  // Energy charged per completed wake (J); models the setup cost of
  // power-cycling (cold caches, spin-up, state restore).
  double setup_energy_j = 0.0;
  // Seconds between the wake trigger (`on_at`) and the server accepting
  // work again.
  double wake_latency_s = 0.0;
  // Seconds spent DRAINING after `off_at` before the server counts as OFF.
  // 0 goes straight to OFF; either way no new work is accepted past off_at.
  double drain_grace_s = 0.0;
  // Sorted, non-overlapping unavailability windows.  Empty = always on;
  // an always-on spec must leave the run bit-identical to the
  // pre-lifecycle code path (the cluster skips building a lifecycle).
  std::vector<AvailabilityWindow> windows;

  bool always_on() const noexcept { return windows.empty(); }
  // GE_CHECKs non-negative parameters and sorted, non-overlapping,
  // well-formed (off_at < on_at) windows.
  void validate() const;
};

// One precomputed state change.  Only kLeaveService and kCompleteWake
// change dispatchability.
struct LifecycleTransition {
  enum class Kind : std::uint8_t {
    kLeaveService,  // ONLINE -> DRAINING (or OFF when there is no grace)
    kPowerOff,      // DRAINING -> OFF
    kBeginWake,     // OFF -> WAKING
    kCompleteWake,  // -> ONLINE; charges setup energy
  };
  double at = 0.0;
  Kind kind = Kind::kLeaveService;
};

class ServerLifecycle {
 public:
  explicit ServerLifecycle(LifecycleSpec spec);

  ServerState state() const noexcept { return state_; }
  // True iff the dispatcher may route a new job here (ONLINE only).
  bool dispatchable() const noexcept { return state_ == ServerState::kOnline; }

  // Completed wakes so far, and the setup energy they charged (J).
  std::uint64_t wakes() const noexcept { return wakes_; }
  double setup_energy_j() const noexcept { return setup_energy_accum_j_; }
  // Seconds spent outside ONLINE up to `now`.
  double offline_s(double now) const noexcept;

  const LifecycleSpec& spec() const noexcept { return spec_; }

  // Every transition of every window, in time order -- which is also the
  // order schedule() registers them in.
  const std::vector<LifecycleTransition>& transitions() const noexcept {
    return transitions_;
  }

  // Registers every transition as a simulator event.
  // `on_online` fires after each completed wake (the cluster re-dispatches
  // its pending queue there); it may be null.  Call exactly once, before
  // the run starts.
  void schedule(sim::Simulator& sim, std::function<void()> on_online);

  // Fires on every state change (and once with the initial ONLINE state
  // when schedule() runs), before `on_online`.  The cluster uses it to emit
  // kServerState trace events; null (the default) disables the tap.  Set
  // before schedule().
  void set_transition_observer(std::function<void(double, ServerState)> obs) {
    transition_observer_ = std::move(obs);
  }

 private:
  void enter(double now, ServerState next);  // state_ = next; notify observer
  void apply(const LifecycleTransition& transition);
  void leave_service(double now);
  void power_off(double now);
  void begin_wake(double now);
  void complete_wake(double now);

  LifecycleSpec spec_;
  std::vector<LifecycleTransition> transitions_;
  ServerState state_ = ServerState::kOnline;
  std::uint64_t wakes_ = 0;
  double setup_energy_accum_j_ = 0.0;
  double offline_accum_s_ = 0.0;
  double offline_since_ = -1.0;  // < 0 while online
  std::function<void()> on_online_;
  std::function<void(double, ServerState)> transition_observer_;
};

}  // namespace ge::cluster
