// Stochastic building blocks of the paper's web-search workload model
// (Sec. IV-B): Poisson request arrivals and bounded-Pareto service demands.
#pragma once

#include "util/rng.h"

namespace ge::workload {

// Bounded (truncated) Pareto distribution on [xmin, xmax] with tail index
// alpha.  The paper uses alpha = 3, xmin = 130, xmax = 1000, giving a mean
// demand of ~192.1 processing units.
class BoundedParetoDistribution {
 public:
  BoundedParetoDistribution(double alpha, double xmin, double xmax);

  double sample(util::Rng& rng) const;

  // Closed-form mean of the distribution.
  double mean() const;

  double alpha() const noexcept { return alpha_; }
  double xmin() const noexcept { return xmin_; }
  double xmax() const noexcept { return xmax_; }

 private:
  double alpha_;
  double xmin_;
  double xmax_;
  double ratio_pow_;  // (xmin / xmax)^alpha, cached for inverse-CDF sampling
};

// Two-state (on-off) modulated Poisson process: a "burst" state with an
// elevated rate alternates with a "calm" state, dwell times exponential.
// The long-run mean rate equals the configured `mean_rate`, so sweeps stay
// comparable as burstiness grows.  peak_to_mean == 1 degenerates to a
// homogeneous Poisson process.  Used to stress the GE compensation policy
// with workloads whose instantaneous rate crosses the critical load even
// when the average does not.
class OnOffPoissonProcess {
 public:
  // burst_fraction: long-run share of time spent in the burst state (0,1).
  // peak_to_mean:   burst-state rate / mean rate; must satisfy
  //                 peak_to_mean * burst_fraction < 1 so the calm rate is
  //                 positive.
  // burst_dwell:    mean sojourn in the burst state (seconds).
  OnOffPoissonProcess(double mean_rate, double peak_to_mean, double burst_fraction,
                      double burst_dwell, util::Rng rng);

  double next();

 private:
  double burst_rate_;
  double calm_rate_;
  double burst_dwell_;
  double calm_dwell_;
  double time_ = 0.0;
  double next_switch_;
  bool in_burst_ = false;
  util::Rng rng_;
};

// Homogeneous Poisson arrival process with the given rate (requests/second).
class PoissonProcess {
 public:
  PoissonProcess(double rate, util::Rng rng);

  // Returns the next arrival time strictly after the previous one.
  double next();

  double rate() const noexcept { return rate_; }

 private:
  double rate_;
  double time_ = 0.0;
  util::Rng rng_;
};

}  // namespace ge::workload
