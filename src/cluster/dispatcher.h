// Dispatch tier of the cluster layer: who decides which server a request
// lands on.
//
// Once there is more than one server, the dispatch decision dominates the
// energy/quality outcome (Kling & Pietrzyk, "Profitable Scheduling on
// Multiple Speed-Scalable Processors"): a scheduler can only cut or speed-
// scale the work it was given.  The Dispatcher interface isolates that
// decision so policies are plug-ins -- the simulation runner calls pick()
// exactly once per arrival, in arrival order, which keeps every policy
// deterministic for a fixed seed (the random policy carries its own
// ge::util::Rng stream, derived from the run seed and independent of the
// workload's).
//
// Policies observe the cluster through DispatchView, a read-only snapshot
// interface: in-flight job counts (dispatched minus settled), accumulated
// dynamic energy, online-core capacity, and -- once servers have lifecycles
// (cluster/lifecycle.h) -- per-server dispatchability.  They never mutate
// server state.
//
// Offline awareness: every policy restricts its choice to dispatchable
// servers and must only be asked to pick when at least one server is
// dispatchable (the cluster queues arrivals otherwise).  When every server
// is dispatchable -- the default, always-on fleet -- each policy's decision
// sequence and RNG consumption are bit-identical to the pre-lifecycle
// implementation; the multi-server golden pins in tests/test_lifecycle.cpp
// hold this.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "util/rng.h"

namespace ge::workload {
struct Job;
}

namespace ge::cluster {

enum class DispatchPolicy {
  kSingle,       // passthrough: every job to server 0 (the single-server path)
  kRandom,       // uniformly random server, from a dedicated seeded stream
  kRoundRobin,   // arrival order modulo server count
  kJsq,          // join-shortest-queue: fewest in-flight jobs per online core
  kLeastEnergy,  // power-aware: least accumulated dynamic energy so far
};

// "single", "random", "rr", "jsq", "least-energy".
const char* to_string(DispatchPolicy policy) noexcept;

// True for the policies whose picks read no load or energy state -- only
// the pick order and per-server dispatchability -- so a sharded run can
// take every decision at setup (Cluster::plan_dispatch).
constexpr bool is_state_free(DispatchPolicy policy) noexcept {
  return policy == DispatchPolicy::kSingle ||
         policy == DispatchPolicy::kRandom ||
         policy == DispatchPolicy::kRoundRobin;
}

// Parses the names above (aliases: "round-robin" for rr, "power" for
// least-energy); case-insensitive, nullopt on anything else.
std::optional<DispatchPolicy> find_dispatch_policy(const std::string& name);

// Read-only view of the live cluster a policy may consult.  Implemented by
// cluster::Cluster; a test can implement it directly to unit-test policies.
class DispatchView {
 public:
  virtual ~DispatchView() = default;
  virtual std::size_t num_servers() const = 0;
  // Jobs dispatched to `server` and not yet settled.
  virtual std::size_t in_flight(std::size_t server) const = 0;
  // Dynamic energy (J) the server consumed so far.
  virtual double consumed_energy(std::size_t server) const = 0;
  // Cores still online on the server (capacity weight for JSQ).
  virtual std::size_t online_cores(std::size_t server) const = 0;
  // True when the server may receive new work (lifecycle state ONLINE).
  // Defaults to true so always-on views need not know about lifecycles.
  virtual bool dispatchable(std::size_t) const { return true; }
};

class Dispatcher {
 public:
  Dispatcher(const DispatchView& view, DispatchPolicy policy)
      : view_(view), policy_(policy) {}
  virtual ~Dispatcher() = default;

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // The server `job` is sent to; called once per dispatch, in dispatch
  // order (arrival order, plus wake-time re-dispatch of queued jobs).  Only
  // dispatchable servers are returned; callers must ensure at least one
  // exists (GE_CHECKed).
  virtual std::size_t pick(const workload::Job& job) = 0;

  DispatchPolicy policy() const noexcept { return policy_; }
  const char* name() const noexcept { return to_string(policy_); }

 protected:
  const DispatchView& view_;

 private:
  DispatchPolicy policy_;
};

// Builds the policy.  `view` must outlive the dispatcher; `seed` feeds the
// random policy's private stream (ignored by the deterministic policies).
std::unique_ptr<Dispatcher> make_dispatcher(DispatchPolicy policy,
                                            const DispatchView& view,
                                            std::uint64_t seed);

}  // namespace ge::cluster
