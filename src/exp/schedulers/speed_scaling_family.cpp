// Registry plugins for the online speed-scaling zoo: OA, qOA (QOA[q]),
// AVR, BKP (core/speed_scaling.h).  All four are external baselines from
// Abousamra-Bunde-Pruhs, "An Experimental Comparison of Speed Scaling
// Algorithms with Deadline Feasibility Constraints"; bench/abl_speed_scaling
// reproduces that comparison on this repo's workload.
#include <algorithm>
#include <memory>

#include "core/speed_scaling.h"
#include "exp/config.h"
#include "exp/scheduler_registry.h"
#include "exp/scheduler_spec.h"
#include "util/check.h"
#include "util/table.h"

namespace ge::exp {
namespace {

// qOA's theoretical optimum for the repo's default power exponent beta = 2
// (q = 2 - 1/beta); the ABP experiments favour smaller q at low load, which
// bench/abl_speed_scaling sweeps.
constexpr double kDefaultQoaQ = 1.5;

// BKP's estimate (and qOA's speed away from q = 1) moves continuously
// between events; re-sample it a few times per deadline window without
// outpacing the scheduler quantum.
double refresh_interval(const ExperimentConfig& cfg) {
  return std::max(1e-3, std::min(cfg.quantum, 0.25 * cfg.deadline_interval));
}

std::unique_ptr<sched::Scheduler> make_speed_scaler(
    const sched::SchedulerEnv& env, const ExperimentConfig& cfg,
    const power::DiscreteSpeedTable* table, sched::SpeedScalingPolicy policy,
    double q, bool refresh, std::string name) {
  sched::SpeedScalingOptions opts;
  opts.policy = policy;
  opts.q = q;
  opts.refresh_interval = refresh ? refresh_interval(cfg) : 0.0;
  opts.speed_table = table;
  return std::make_unique<sched::SpeedScalingScheduler>(env, opts,
                                                        std::move(name));
}

SchedulerPlugin make_oa() {
  SchedulerPlugin p;
  p.name = "OA";
  p.summary = "Optimal Available: re-solve YDS on remaining work per arrival";
  p.factory = [](const SchedulerSpec&, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table) {
    return make_speed_scaler(env, cfg, table, sched::SpeedScalingPolicy::kOa,
                             1.0, false, "OA");
  };
  return p;
}

SchedulerPlugin make_qoa() {
  SchedulerPlugin p;
  p.name = "QOA";
  p.summary = "qOA: OA speed scaled by q (QOA[q]; default q = 1.5)";
  p.params_help = "q > 0: multiplier on the OA speed (default 1.5, the "
                  "2 - 1/beta optimum for beta = 2)";
  p.min_params = 0;
  p.max_params = 1;
  p.apply_params = [](SchedulerSpec& spec) -> std::string {
    if (spec.params.empty()) {
      spec.params.push_back(kDefaultQoaQ);
    }
    return spec.params[0] > 0.0 ? "" : "QOA q must be positive";
  };
  p.factory = [](const SchedulerSpec& spec, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table) {
    const double q = spec.params.empty() ? kDefaultQoaQ : spec.params[0];
    // Away from q = 1 the intended speed drifts from the installed plan
    // between events; the refresh grid re-samples it.
    return make_speed_scaler(env, cfg, table, sched::SpeedScalingPolicy::kQoa,
                             q, q != 1.0,
                             "qOA(q=" + util::format_double(q, 2) + ")");
  };
  return p;
}

SchedulerPlugin make_avr() {
  SchedulerPlugin p;
  p.name = "AVR";
  p.summary = "Average Rate: run at the sum of per-job constant densities";
  p.factory = [](const SchedulerSpec&, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table) {
    return make_speed_scaler(env, cfg, table, sched::SpeedScalingPolicy::kAvr,
                             1.0, false, "AVR");
  };
  return p;
}

SchedulerPlugin make_bkp() {
  SchedulerPlugin p;
  p.name = "BKP";
  p.summary = "Bansal-Kimbrel-Pruhs e-competitive estimator over OA floor";
  p.factory = [](const SchedulerSpec&, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table) {
    return make_speed_scaler(env, cfg, table, sched::SpeedScalingPolicy::kBkp,
                             1.0, true, "BKP");
  };
  return p;
}

}  // namespace

std::vector<SchedulerPlugin> speed_scaling_family_plugins() {
  return {make_oa(), make_qoa(), make_avr(), make_bkp()};
}

}  // namespace ge::exp
