#include "workload/generator.h"

#include "util/check.h"

namespace ge::workload {
namespace {

util::Rng master_rng(std::uint64_t seed) { return util::Rng(seed * 0x9e3779b97f4a7c15ULL + 1); }

}  // namespace

WorkloadGenerator::WorkloadGenerator(const WorkloadSpec& spec)
    : spec_(spec),
      demand_(spec.pareto_alpha, spec.demand_min, spec.demand_max),
      arrivals_(spec.arrival_rate, master_rng(spec.seed).split()),
      demand_rng_(master_rng(spec.seed).split().split()),
      deadline_rng_(master_rng(spec.seed).split().split().split()),
      tenant_rng_(master_rng(spec.seed).split().split().split().split()) {
  GE_CHECK(spec.num_tenants >= 1, "workload needs at least one tenant");
  GE_CHECK(spec.deadline_interval > 0.0, "deadline interval must be positive");
  GE_CHECK(spec.deadline_interval_max >= spec.deadline_interval,
           "deadline_interval_max must be >= deadline_interval");
  if (spec.bursty()) {
    bursty_arrivals_ = std::make_unique<OnOffPoissonProcess>(
        spec.arrival_rate, spec.burst_peak_to_mean, spec.burst_fraction,
        spec.burst_dwell, master_rng(spec.seed).split());
  }
}

double WorkloadGenerator::next_arrival() {
  if (bursty_arrivals_ != nullptr) {
    return bursty_arrivals_->next();
  }
  return arrivals_.next();
}

Job WorkloadGenerator::next() {
  Job job;
  job.id = next_id_++;
  job.arrival = next_arrival();
  double window = spec_.deadline_interval;
  if (spec_.random_deadlines()) {
    window = deadline_rng_.uniform(spec_.deadline_interval, spec_.deadline_interval_max);
  }
  job.deadline = job.arrival + window;
  job.demand = demand_.sample(demand_rng_);
  job.target = job.demand;  // uncut until a scheduler decides otherwise
  if (spec_.num_tenants > 1) {
    // Drawn from a dedicated stream, and only on multi-tenant specs, so the
    // single-tenant trace stays bit-identical to the pre-tenant generator.
    job.tenant =
        static_cast<std::int32_t>(tenant_rng_.uniform_index(spec_.num_tenants));
  }
  return job;
}

std::vector<Job> WorkloadGenerator::generate_until(double horizon,
                                                   std::uint64_t max_jobs) {
  std::vector<Job> jobs;
  while (max_jobs == 0 || jobs.size() < max_jobs) {
    Job job = next();
    if (job.arrival >= horizon) {
      break;
    }
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace ge::workload
