// The multicore server (Sec. II-B): m DVFS cores under one dynamic-power
// budget H.
//
// The server owns the cores and enforces the global constraint
// sum_i P_i(t) <= H structurally: power caps are assigned through
// set_power_caps(), which validates that the caps sum to at most H, and each
// core rejects plans exceeding its cap.  Convenience accessors aggregate
// energy and speed statistics across cores.
#pragma once

#include <memory>
#include <vector>

#include "power/power_model.h"
#include "server/core.h"
#include "sim/simulator.h"

namespace ge::server {

class MulticoreServer {
 public:
  // Homogeneous server: every core shares one power model.
  MulticoreServer(std::size_t cores, double power_budget, const power::PowerModel& pm,
                  sim::Simulator& sim);

  // Heterogeneous server: one power model per core (e.g. efficient "big"
  // cores next to less efficient ones).  models.size() fixes the core
  // count; models[0] doubles as the reference model for unit conversions.
  MulticoreServer(std::vector<power::PowerModel> models, double power_budget,
                  sim::Simulator& sim);

  std::size_t core_count() const noexcept { return cores_.size(); }
  Core& core(std::size_t i);
  const Core& core(std::size_t i) const;

  double power_budget() const noexcept { return budget_; }
  // Reference model (conversions); equals every core's model when the
  // server is homogeneous.
  const power::PowerModel& power_model() const noexcept { return models_.front(); }
  // Core i's own model (may differ per core on heterogeneous servers).
  const power::PowerModel& power_model(std::size_t i) const;

  // Validates caps (size m, non-negative, sum <= H) without installing them;
  // schedulers call this before planning against the caps.
  void check_caps(const std::vector<double>& caps) const;

  // Instantaneous total power across cores at time t.
  double total_power(double t) const;

  // Total dynamic energy integrated so far across cores.
  double total_energy() const;

  // Aggregated busy-speed statistics across cores (Fig. 6 metrics).
  util::TimeWeightedStats aggregate_speed_stats() const;

  // Total busy core-seconds.
  double total_busy_time() const;

  // Index of an idle *online* core at time t, or -1 if none.
  int find_idle_core(double t) const;

  // Number of cores still online.
  std::size_t online_cores() const;

 private:
  void build_cores(sim::Simulator& sim);

  double budget_;
  std::vector<power::PowerModel> models_;  // one per core; stable addresses
  std::vector<std::unique_ptr<Core>> cores_;
};

}  // namespace ge::server
