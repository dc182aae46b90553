#include "cluster/dispatcher.h"

#include <algorithm>
#include <cctype>

#include "util/check.h"
#include "workload/job.h"

namespace ge::cluster {
namespace {

// Decorrelates the dispatch stream from the workload generator's streams,
// which are split() children of the raw run seed.
constexpr std::uint64_t kDispatchSeedSalt = 0xd15ba7c4ULL;

class SingleDispatcher final : public Dispatcher {
 public:
  explicit SingleDispatcher(const DispatchView& view)
      : Dispatcher(view, DispatchPolicy::kSingle) {}
  std::size_t pick(const workload::Job&) override { return 0; }
};

class RandomDispatcher final : public Dispatcher {
 public:
  RandomDispatcher(const DispatchView& view, std::uint64_t seed)
      : Dispatcher(view, DispatchPolicy::kRandom), rng_(seed ^ kDispatchSeedSalt) {}
  std::size_t pick(const workload::Job&) override {
    const std::size_t n = view_.num_servers();
    std::size_t avail = 0;
    for (std::size_t s = 0; s < n; ++s) {
      avail += view_.dispatchable(s) ? 1 : 0;
    }
    GE_CHECK(avail > 0, "dispatch: no dispatchable server");
    // One draw either way; uniform over the dispatchable subset degenerates
    // to uniform_index(n) -- same stream, same value -- when all are online.
    std::size_t k = static_cast<std::size_t>(rng_.uniform_index(avail));
    for (std::size_t s = 0; s < n; ++s) {
      if (!view_.dispatchable(s)) continue;
      if (k == 0) return s;
      --k;
    }
    GE_FAIL("dispatch: random pick out of range");
  }

 private:
  util::Rng rng_;
};

class RoundRobinDispatcher final : public Dispatcher {
 public:
  explicit RoundRobinDispatcher(const DispatchView& view)
      : Dispatcher(view, DispatchPolicy::kRoundRobin) {}
  std::size_t pick(const workload::Job&) override {
    const std::size_t n = view_.num_servers();
    // First dispatchable server scanning forward from the cursor; with an
    // all-online fleet that is exactly the old `next_ % n` sequence.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = (next_ + i) % n;
      if (view_.dispatchable(s)) {
        next_ = s + 1;
        return s;
      }
    }
    GE_FAIL("dispatch: no dispatchable server");
  }

 private:
  std::size_t next_ = 0;
};

// Join-shortest-queue, weighted by online capacity: minimises in-flight
// jobs per online core so a half-failed or small server is not loaded like
// a full one.  Ties break to the lowest index; the comparison is done in
// cross-multiplied integers, so there is no floating-point ratio to drift.
class JsqDispatcher final : public Dispatcher {
 public:
  explicit JsqDispatcher(const DispatchView& view)
      : Dispatcher(view, DispatchPolicy::kJsq) {}
  std::size_t pick(const workload::Job&) override {
    const std::size_t n = view_.num_servers();
    std::size_t best = n;
    for (std::size_t s = 0; s < n; ++s) {
      if (!view_.dispatchable(s)) continue;
      if (best == n) {
        best = s;
        continue;
      }
      const std::uint64_t lhs = static_cast<std::uint64_t>(view_.in_flight(s)) *
                                std::max<std::size_t>(view_.online_cores(best), 1);
      const std::uint64_t rhs =
          static_cast<std::uint64_t>(view_.in_flight(best)) *
          std::max<std::size_t>(view_.online_cores(s), 1);
      if (lhs < rhs) {
        best = s;
      }
    }
    GE_CHECK(best < n, "dispatch: no dispatchable server");
    return best;
  }
};

// Power-aware ("least recent energy"): sends the job to the server that has
// consumed the least dynamic energy so far.  Over time this equalises
// energy across the fleet, which also equalises thermal load; ties break to
// the lowest index.
class LeastEnergyDispatcher final : public Dispatcher {
 public:
  explicit LeastEnergyDispatcher(const DispatchView& view)
      : Dispatcher(view, DispatchPolicy::kLeastEnergy) {}
  std::size_t pick(const workload::Job&) override {
    const std::size_t n = view_.num_servers();
    std::size_t best = n;
    double best_energy = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      if (!view_.dispatchable(s)) continue;
      const double e = view_.consumed_energy(s);
      if (best == n || e < best_energy) {
        best = s;
        best_energy = e;
      }
    }
    GE_CHECK(best < n, "dispatch: no dispatchable server");
    return best;
  }
};

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

const char* to_string(DispatchPolicy policy) noexcept {
  switch (policy) {
    case DispatchPolicy::kSingle:
      return "single";
    case DispatchPolicy::kRandom:
      return "random";
    case DispatchPolicy::kRoundRobin:
      return "rr";
    case DispatchPolicy::kJsq:
      return "jsq";
    case DispatchPolicy::kLeastEnergy:
      return "least-energy";
  }
  return "unknown";
}

std::optional<DispatchPolicy> find_dispatch_policy(const std::string& name) {
  const std::string key = lower(name);
  if (key == "single") {
    return DispatchPolicy::kSingle;
  }
  if (key == "random") {
    return DispatchPolicy::kRandom;
  }
  if (key == "rr" || key == "round-robin") {
    return DispatchPolicy::kRoundRobin;
  }
  if (key == "jsq") {
    return DispatchPolicy::kJsq;
  }
  if (key == "least-energy" || key == "power") {
    return DispatchPolicy::kLeastEnergy;
  }
  return std::nullopt;
}

std::unique_ptr<Dispatcher> make_dispatcher(DispatchPolicy policy,
                                            const DispatchView& view,
                                            std::uint64_t seed) {
  switch (policy) {
    case DispatchPolicy::kSingle:
      return std::make_unique<SingleDispatcher>(view);
    case DispatchPolicy::kRandom:
      return std::make_unique<RandomDispatcher>(view, seed);
    case DispatchPolicy::kRoundRobin:
      return std::make_unique<RoundRobinDispatcher>(view);
    case DispatchPolicy::kJsq:
      return std::make_unique<JsqDispatcher>(view);
    case DispatchPolicy::kLeastEnergy:
      return std::make_unique<LeastEnergyDispatcher>(view);
  }
  GE_FAIL("unhandled dispatch policy");
}

}  // namespace ge::cluster
