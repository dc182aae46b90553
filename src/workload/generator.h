// Synthetic web-search workload generator (Sec. IV-B).
//
// Requests arrive by a Poisson process; each carries a bounded-Pareto
// processing demand and a response deadline.  Two deadline regimes are
// modelled:
//   * Fixed interval: deadline = arrival + 150 ms (Fig. 3 and most figures).
//   * Random interval: deadline = arrival + U[150 ms, 500 ms] (Fig. 4),
//     which breaks the "agreeable deadlines" property and motivates FDFS.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "util/rng.h"
#include "workload/distributions.h"
#include "workload/job.h"

namespace ge::workload {

struct WorkloadSpec {
  double arrival_rate = 150.0;  // requests per second
  double pareto_alpha = 3.0;
  double demand_min = 130.0;    // processing units
  double demand_max = 1000.0;
  double deadline_interval = 0.150;      // seconds
  double deadline_interval_max = 0.150;  // > interval enables random windows
  std::uint64_t seed = 1;

  // Burstiness (on-off modulated arrivals).  peak_to_mean == 1 keeps the
  // plain Poisson process; > 1 alternates burst/calm states while holding
  // the long-run mean at arrival_rate.
  double burst_peak_to_mean = 1.0;
  double burst_fraction = 0.2;  // long-run share of time in the burst state
  double burst_dwell = 1.0;     // mean burst sojourn, seconds

  // Multi-tenant traffic: each job is tagged with a tenant drawn uniformly
  // from [0, num_tenants).  1 (the default) draws nothing, leaving every
  // RNG stream -- and therefore the generated trace -- bit-identical to the
  // single-tenant generator.
  std::size_t num_tenants = 1;

  bool random_deadlines() const noexcept {
    return deadline_interval_max > deadline_interval;
  }
  bool bursty() const noexcept { return burst_peak_to_mean > 1.0; }
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const WorkloadSpec& spec);

  // Generates the next request; arrivals are strictly increasing.
  Job next();

  // Generates all requests arriving before `horizon` seconds.  When
  // `max_jobs` is non-zero, stops after that many requests even if the
  // horizon has not been reached (the capped prefix of the uncapped stream,
  // so capped and uncapped runs share randomness job for job).
  std::vector<Job> generate_until(double horizon, std::uint64_t max_jobs = 0);

  const WorkloadSpec& spec() const noexcept { return spec_; }

 private:
  double next_arrival();

  WorkloadSpec spec_;
  BoundedParetoDistribution demand_;
  PoissonProcess arrivals_;
  std::unique_ptr<OnOffPoissonProcess> bursty_arrivals_;  // non-null when bursty
  util::Rng demand_rng_;
  util::Rng deadline_rng_;
  util::Rng tenant_rng_;  // consulted only when spec.num_tenants > 1
  std::uint64_t next_id_ = 1;
};

}  // namespace ge::workload
