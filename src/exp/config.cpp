#include "exp/config.h"

#include <cmath>

#include "cluster/cluster.h"
#include "util/check.h"
#include "util/rng.h"

namespace ge::exp {

const char* to_string(QualityFamily family) noexcept {
  switch (family) {
    case QualityFamily::kExponential:
      return "exponential";
    case QualityFamily::kLinear:
      return "linear";
    case QualityFamily::kPowerLaw:
      return "power-law";
  }
  return "unknown";
}

ExperimentConfig ExperimentConfig::paper_defaults() { return ExperimentConfig{}; }

std::optional<ConfigError> ExperimentConfig::first_error() const {
  // `value` rides along on the ranges that depend on another flag, the
  // ones a user can break without passing the flag they name.
  auto error = [](const char* flag, const char* rule, const char* message,
                  std::optional<double> value = std::nullopt) {
    return std::optional<ConfigError>(ConfigError{flag, rule, message, value});
  };
  if (cores == 0) {
    return error("cores", "an integer >= 1", "config: need at least one core");
  }
  if (!(power_budget > 0.0)) {
    return error("budget", "positive", "config: power budget must be positive");
  }
  if (!(power_a > 0.0 && power_beta > 1.0)) {
    return error("", "", "config: invalid power model");
  }
  if (!(units_per_ghz > 0.0)) {
    return error("", "", "config: units_per_ghz must be positive");
  }
  if (!(quality_c > 0.0)) {
    return error("quality-c", "positive", "config: quality parameter must be positive");
  }
  if (quality_family == QualityFamily::kPowerLaw && !(quality_c < 1.0)) {
    return error("quality-c", "in (0, 1) for the power-law family",
                 "config: power-law exponent must be in (0,1)", quality_c);
  }
  if (!(arrival_rate > 0.0)) {
    return error("rate", "positive", "config: arrival rate must be positive");
  }
  if (!(demand_alpha > 0.0)) {
    return error("alpha", "positive", "config: invalid demand distribution");
  }
  if (!(demand_min > 0.0)) {
    return error("xmin", "positive", "config: invalid demand distribution");
  }
  if (!(demand_max > demand_min)) {
    return error("xmax", "greater than --xmin", "config: invalid demand distribution",
                 demand_max);
  }
  if (!(deadline_interval > 0.0)) {
    return error("deadline", "positive (milliseconds)",
                 "config: invalid deadline window");
  }
  if (!(deadline_interval_max >= deadline_interval)) {
    return error("deadline-max", "at least --deadline",
                 "config: invalid deadline window", deadline_interval_max * 1000.0);
  }
  if (!(burst_peak_to_mean >= 1.0)) {
    return error("burst", ">= 1", "config: burst ratio must be >= 1");
  }
  // The on/off arrival process of a bursty workload (workload::WorkloadSpec).
  if (burst_peak_to_mean > 1.0) {
    if (!(burst_fraction > 0.0 && burst_fraction < 1.0)) {
      return error("burst-fraction", "in (0, 1)",
                   "config: burst fraction must be in (0,1)");
    }
    if (!(burst_peak_to_mean * burst_fraction < 1.0)) {
      return error("burst-fraction", "below 1 / --burst",
                   "config: burst ratio times burst fraction must be < 1",
                   burst_fraction);
    }
    if (!(burst_dwell > 0.0)) {
      return error("burst-dwell", "positive", "config: burst dwell must be positive");
    }
  }
  if (!(q_ge >= 0.0 && q_ge <= 1.0)) {
    return error("qge", "in [0, 1]", "config: Q_GE must be in [0,1]");
  }
  if (!(quantum > 0.0)) {
    return error("quantum", "positive", "config: invalid triggers");
  }
  if (counter_threshold <= 0) {
    return error("counter", "an integer >= 1", "config: invalid triggers");
  }
  if (!(load_window > 0.0)) {
    return error("load-window", "positive", "config: load window must be positive");
  }
  if (discrete_speeds &&
      !(discrete_step_ghz > 0.0 && discrete_max_ghz >= discrete_step_ghz)) {
    return error("step-ghz", "positive and at most --max-ghz",
                 "config: invalid discrete speed ladder", discrete_step_ghz);
  }
  if (!(static_power_per_core >= 0.0)) {
    return error("static-power", "non-negative", "config: negative static power");
  }
  if (!(hetero_spread >= 1.0)) {
    return error("hetero-spread", ">= 1", "config: hetero spread must be >= 1");
  }
  if (num_servers == 0) {
    return error("servers", "an integer >= 1", "config: need at least one server");
  }
  if (!server_cores.empty() && server_cores.size() != num_servers) {
    return error("server-cores", "a list with one entry per server",
                 "config: server_cores must be empty or have one entry per server");
  }
  for (std::size_t n : server_cores) {
    if (n == 0) {
      return error("server-cores", "a list of integers >= 1",
                   "config: every server needs at least one core");
    }
  }
  if (!server_power_scale.empty() && server_power_scale.size() != num_servers) {
    return error("server-power-scale", "a list with one entry per server",
                 "config: server_power_scale must be empty or one entry per server");
  }
  for (double s : server_power_scale) {
    if (!(s > 0.0)) {
      return error("server-power-scale", "a list of positive numbers",
                   "config: server power scale must be positive");
    }
  }
  if (!server_max_ghz.empty() && server_max_ghz.size() != num_servers) {
    return error("server-max-ghz", "a list with one entry per server",
                 "config: server_max_ghz must be empty or one entry per server");
  }
  for (double g : server_max_ghz) {
    if (discrete_speeds && !(g >= discrete_step_ghz)) {
      return error("server-max-ghz", "at least --step-ghz with --discrete",
                   "config: per-server max GHz below the ladder step");
    }
  }
  // Failures land on the last server; it must have that many cores.
  if (failure_cores > server_core_count(num_servers - 1)) {
    return error("failure-cores", "at most the last server's core count",
                 "config: cannot fail more cores than exist",
                 static_cast<double>(failure_cores));
  }
  if (!(duration > 0.0)) {
    return error("seconds", "positive", "config: duration must be positive");
  }
  if (shards == 0) {
    return error("shards", "an integer >= 1", "config: need at least one shard");
  }
  if (!(churn >= 0.0 && churn < 1.0)) {
    return error("churn", "in [0, 1)", "config: churn must be in [0,1)");
  }
  if (!(churn_dwell > 0.0)) {
    return error("churn-dwell", "positive", "config: churn dwell must be positive");
  }
  if (!((off_at < 0.0 && on_at < 0.0) || (off_at >= 0.0 && on_at > off_at))) {
    return error("on-at", "greater than --off-at, with both set or neither",
                 "config: off_at/on_at must both be unset or form a window", on_at);
  }
  if (churn > 0.0 && off_at >= 0.0) {
    return error("off-at", "unset when --churn is positive",
                 "config: churn and an explicit off_at/on_at window are exclusive",
                 off_at);
  }
  if (!(setup_energy >= 0.0)) {
    return error("setup-energy", "non-negative", "config: setup energy must be >= 0");
  }
  if (!(wake_latency >= 0.0)) {
    return error("wake-latency", "non-negative", "config: wake latency must be >= 0");
  }
  if (!(drain_grace >= 0.0)) {
    return error("drain-grace", "non-negative", "config: drain grace must be >= 0");
  }
  if (num_tenants == 0) {
    return error("tenants", "an integer >= 1", "config: need at least one tenant");
  }
  if (!tenant_qge.empty() && tenant_qge.size() != num_tenants) {
    return error("tenant-qge", "a list with one entry per tenant",
                 "config: tenant_qge must be empty or have one entry per tenant");
  }
  for (double q : tenant_qge) {
    if (!(q >= 0.0 && q <= 1.0)) {
      return error("tenant-qge", "a list of values in [0, 1]",
                   "config: tenant Q_GE must be in [0,1]");
    }
  }
  if (!(admission >= 0.0)) {
    return error("admission", "non-negative (0 disables admission)",
                 "config: admission threshold must be >= 0");
  }
  return std::nullopt;
}

void ExperimentConfig::validate() const {
  if (const std::optional<ConfigError> error = first_error()) {
    GE_FAIL(error->message);
  }
}

std::unique_ptr<quality::QualityFunction> ExperimentConfig::make_quality_function()
    const {
  switch (quality_family) {
    case QualityFamily::kLinear:
      return std::make_unique<quality::LinearQuality>(demand_max);
    case QualityFamily::kPowerLaw:
      return std::make_unique<quality::PowerLawQuality>(quality_c, demand_max);
    case QualityFamily::kExponential:
      break;
  }
  return std::make_unique<quality::ExponentialQuality>(quality_c, demand_max);
}

workload::WorkloadSpec ExperimentConfig::workload_spec() const {
  workload::WorkloadSpec spec;
  spec.arrival_rate = arrival_rate;
  spec.pareto_alpha = demand_alpha;
  spec.demand_min = demand_min;
  spec.demand_max = demand_max;
  spec.deadline_interval = deadline_interval;
  spec.deadline_interval_max = deadline_interval_max;
  spec.burst_peak_to_mean = burst_peak_to_mean;
  spec.burst_fraction = burst_fraction;
  spec.burst_dwell = burst_dwell;
  spec.num_tenants = num_tenants;
  spec.seed = seed;
  return spec;
}

double ExperimentConfig::tenant_q_target(std::size_t tenant) const {
  GE_CHECK(tenant < num_tenants, "config: tenant index out of range");
  return tenant_qge.empty() ? q_ge : tenant_qge[tenant];
}

power::PowerModel ExperimentConfig::power_model() const {
  return power::PowerModel(power_a, power_beta, units_per_ghz);
}

namespace {

// Core models for one server: `a_base` grows linearly to `a_base * spread`
// across the server's cores (the single-server hetero_spread rule, applied
// per server so heterogeneous fleets keep the same intra-server shape).
std::vector<power::PowerModel> models_for(std::size_t ncores, double a_base,
                                          double spread, double beta,
                                          double units_per_ghz) {
  std::vector<power::PowerModel> models;
  models.reserve(ncores);
  for (std::size_t i = 0; i < ncores; ++i) {
    const double frac =
        ncores > 1 ? static_cast<double>(i) / static_cast<double>(ncores - 1) : 0.0;
    const double a = a_base * (1.0 + (spread - 1.0) * frac);
    models.emplace_back(a, beta, units_per_ghz);
  }
  return models;
}

// Decorrelates the per-server churn streams from the workload generator's
// (seed * golden + 1 family) and the random dispatcher's (seed ^ salt).
constexpr std::uint64_t kChurnSeedSalt = 0x0ff1c3b007ULL;

// Random availability trace for server `s`: alternating exponential ON/OFF
// dwells, starting online, covering the whole drain horizon.  Tuned so the
// long-run OFF fraction is `churn` with mean OFF dwell `churn_dwell`.  Each
// ON dwell is floored at `min_on` (the wake latency): a window opening
// before the previous wake completes would power off a WAKING server,
// which LifecycleSpec::validate rejects.
std::vector<cluster::AvailabilityWindow> churn_windows(double churn,
                                                       double churn_dwell,
                                                       double min_on,
                                                       double horizon,
                                                       std::uint64_t seed,
                                                       std::size_t s) {
  const double mean_off = churn_dwell;
  const double mean_on = churn_dwell * (1.0 - churn) / churn;
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + kChurnSeedSalt + s);
  std::vector<cluster::AvailabilityWindow> windows;
  double t = rng.exponential(1.0 / mean_on);
  while (t < horizon) {
    cluster::AvailabilityWindow w;
    w.off_at = t;
    w.on_at = t + rng.exponential(1.0 / mean_off);
    windows.push_back(w);
    t = w.on_at + min_on + rng.exponential(1.0 / mean_on);
  }
  return windows;
}

}  // namespace

std::size_t ExperimentConfig::server_core_count(std::size_t s) const {
  GE_CHECK(s < num_servers, "config: server index out of range");
  return server_cores.empty() ? cores : server_cores[s];
}

std::vector<cluster::NodeSpec> ExperimentConfig::cluster_node_specs(
    double budget) const {
  std::vector<cluster::NodeSpec> specs;
  specs.reserve(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s) {
    const std::size_t ncores = server_core_count(s);
    cluster::NodeSpec spec;
    // `power_a * 1.0` and `budget * (n/n)` are bit-exact, but skipping the
    // multiply entirely keeps the num_servers == 1 identity obvious.
    const double scale = server_power_scale.empty() ? 1.0 : server_power_scale[s];
    const double a_base = scale == 1.0 ? power_a : power_a * scale;
    spec.core_models = models_for(ncores, a_base, hetero_spread, power_beta,
                                  units_per_ghz);
    spec.power_budget =
        ncores == cores
            ? budget
            : budget * (static_cast<double>(ncores) / static_cast<double>(cores));
    spec.monitor_window = monitor_window;
    spec.discrete_speeds = discrete_speeds;
    spec.discrete_step_ghz = discrete_step_ghz;
    spec.discrete_max_ghz =
        server_max_ghz.empty() ? discrete_max_ghz : server_max_ghz[s];
    spec.units_per_ghz = units_per_ghz;
    if (lifecycle_active()) {
      spec.lifecycle.setup_energy_j = setup_energy;
      spec.lifecycle.wake_latency_s = wake_latency;
      spec.lifecycle.drain_grace_s = drain_grace;
      if (churn > 0.0) {
        // Same drain horizon the runner simulates to, so churn covers every
        // instant any released job can still be live.
        const double horizon =
            duration + deadline_interval_max + 2.0 * quantum;
        spec.lifecycle.windows =
            churn_windows(churn, churn_dwell, wake_latency, horizon, seed, s);
      } else {
        spec.lifecycle.windows.push_back({off_at, on_at});
      }
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace ge::exp
