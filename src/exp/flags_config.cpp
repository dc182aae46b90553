#include "exp/flags_config.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

namespace ge::exp {
namespace {

// A list flag must be empty or carry one entry per `unit`; anything else
// exits 2 here instead of aborting in ExperimentConfig::validate.
void require_one_per(const util::Flags& flags, const char* name, std::size_t size,
                     std::size_t count, const char* unit) {
  if (size != 0 && size != count) {
    util::Flags::reject(name,
                        "a list with one entry per " + std::string(unit) + " (" +
                            std::to_string(count) + ")",
                        flags.get_string(name, ""));
  }
}

}  // namespace

ExperimentConfig apply_flags(ExperimentConfig cfg, const util::Flags& flags) {
  // Range-checked (exit 2 on a bad value), not left to the validator's
  // abort; a negative count would also wrap on the unsigned cast.
  cfg.arrival_rate = flags.get_positive_double("rate", cfg.arrival_rate);
  cfg.duration = flags.get_positive_double("seconds", cfg.duration);
  cfg.seed = static_cast<std::uint64_t>(
      flags.get_int_at_least("seed", static_cast<std::int64_t>(cfg.seed), 0));
  cfg.cores = static_cast<std::size_t>(
      flags.get_int_at_least("cores", static_cast<std::int64_t>(cfg.cores), 1));
  cfg.power_budget = flags.get_positive_double("budget", cfg.power_budget);
  cfg.q_ge = flags.get_fraction("qge", cfg.q_ge);

  const std::string family = flags.get_string("quality-family", "");
  if (family == "linear") {
    cfg.quality_family = QualityFamily::kLinear;
  } else if (family == "powerlaw") {
    cfg.quality_family = QualityFamily::kPowerLaw;
  } else if (family == "exponential") {
    cfg.quality_family = QualityFamily::kExponential;
  } else if (!family.empty()) {
    util::Flags::reject("quality-family", "one of exponential, linear, powerlaw",
                        family);
  }
  cfg.quality_c = flags.get_double("quality-c", cfg.quality_c);

  cfg.demand_alpha = flags.get_double("alpha", cfg.demand_alpha);
  cfg.demand_min = flags.get_double("xmin", cfg.demand_min);
  cfg.demand_max = flags.get_double("xmax", cfg.demand_max);

  // Deadlines are given in milliseconds on the command line.  Only the
  // default --deadline-max follows --deadline; a value given below it is
  // refused by first_error() below.
  cfg.deadline_interval =
      flags.get_double("deadline", cfg.deadline_interval * 1000.0) / 1000.0;
  cfg.deadline_interval_max =
      flags.get_double("deadline-max", cfg.deadline_interval_max * 1000.0) / 1000.0;
  if (flags.get_string("deadline-max", "").empty()) {
    cfg.deadline_interval_max =
        std::max(cfg.deadline_interval, cfg.deadline_interval_max);
  }

  cfg.burst_peak_to_mean = flags.get_double("burst", cfg.burst_peak_to_mean);
  cfg.burst_fraction = flags.get_double("burst-fraction", cfg.burst_fraction);
  cfg.burst_dwell = flags.get_double("burst-dwell", cfg.burst_dwell);

  cfg.quantum = flags.get_double("quantum", cfg.quantum);
  cfg.counter_threshold = static_cast<int>(
      flags.get_int_at_least("counter", cfg.counter_threshold, 1));
  cfg.critical_load = flags.get_double("critical-load", cfg.critical_load);
  cfg.load_window = flags.get_double("load-window", cfg.load_window);
  cfg.monitor_window = static_cast<std::size_t>(
      flags.get_int_at_least("monitor-window",
                             static_cast<std::int64_t>(cfg.monitor_window), 0));

  cfg.discrete_speeds = flags.get_bool("discrete", cfg.discrete_speeds);
  cfg.discrete_step_ghz = flags.get_double("step-ghz", cfg.discrete_step_ghz);
  cfg.discrete_max_ghz = flags.get_double("max-ghz", cfg.discrete_max_ghz);

  cfg.static_power_per_core = flags.get_double("static-power", cfg.static_power_per_core);
  cfg.hetero_spread = flags.get_double("hetero-spread", cfg.hetero_spread);
  cfg.failure_time = flags.get_double("failure-time", cfg.failure_time);
  cfg.failure_cores = static_cast<std::size_t>(
      flags.get_int_at_least("failure-cores",
                             static_cast<std::int64_t>(cfg.failure_cores), 0));

  cfg = apply_cluster_flags(std::move(cfg), flags);

  // Server lifecycle: availability churn or one explicit off/on window, plus
  // wake-transition costs (docs/CLI.md, "Server lifecycle").
  cfg.churn = flags.get_double("churn", cfg.churn);
  cfg.churn_dwell = flags.get_double("churn-dwell", cfg.churn_dwell);
  cfg.off_at = flags.get_double("off-at", cfg.off_at);
  cfg.on_at = flags.get_double("on-at", cfg.on_at);
  cfg.setup_energy = flags.get_double("setup-energy", cfg.setup_energy);
  cfg.wake_latency = flags.get_double("wake-latency", cfg.wake_latency);
  cfg.drain_grace = flags.get_double("drain-grace", cfg.drain_grace);

  // Multi-tenant workload: tenant count, optional per-tenant Q_GE targets,
  // and the admission-control slack factor (0 disables admission).
  cfg.num_tenants = static_cast<std::size_t>(
      flags.get_int_at_least("tenants",
                             static_cast<std::int64_t>(cfg.num_tenants), 1));
  cfg.tenant_qge = flags.get_fraction_list("tenant-qge", cfg.tenant_qge);
  require_one_per(flags, "tenant-qge", cfg.tenant_qge.size(), cfg.num_tenants,
                  "tenant");
  cfg.admission = flags.get_double("admission", cfg.admission);

  // Streaming replay controls (docs/CLI.md, "Streaming replay").
  cfg.stream = flags.get_bool("stream", cfg.stream);
  cfg.max_jobs = static_cast<std::uint64_t>(
      flags.get_int_at_least("max-jobs", static_cast<std::int64_t>(cfg.max_jobs),
                             0));
  // The simulator has one event queue now; an unknown flag would be ignored
  // silently, so the retired selector is refused outright.
  if (flags.has("event-queue")) {
    std::fprintf(stderr,
                 "error: --event-queue was removed; the simulator has a single "
                 "event queue\n");
    std::exit(2);
  }
  // Every range the run would abort on, checked before any trace exists.  A
  // flag the user did not pass is blamed with the value in force.
  if (const std::optional<ConfigError> error = cfg.first_error()) {
    const std::string given =
        error->flag.empty() ? "" : flags.get_string(error->flag, "");
    if (!given.empty()) {
      util::Flags::reject(error->flag, error->rule, given);
    }
    if (!error->value) {
      std::fprintf(stderr, "error: %s\n", error->message.c_str());
    } else {
      std::fprintf(stderr, "error: --%s must be %s, got '%.12g' (default)\n",
                   error->flag.c_str(), error->rule.c_str(), *error->value);
    }
    std::exit(2);
  }
  return cfg;
}

ExperimentConfig apply_cluster_flags(ExperimentConfig cfg,
                                     const util::Flags& flags) {
  // --servers 1 is the paper's single-server setup.
  cfg.num_servers = static_cast<std::size_t>(
      flags.get_int_at_least("servers",
                             static_cast<std::int64_t>(cfg.num_servers), 1));
  const std::string dispatch = flags.get_string("dispatch", "");
  if (!dispatch.empty()) {
    const std::optional<cluster::DispatchPolicy> policy =
        cluster::find_dispatch_policy(dispatch);
    if (!policy) {
      util::Flags::reject("dispatch",
                          "one of single, random, rr, jsq, least-energy",
                          dispatch);
    }
    cfg.dispatch = *policy;
  }
  for (std::int64_t n : flags.get_int_list_at_least("server-cores", {}, 1)) {
    cfg.server_cores.push_back(static_cast<std::size_t>(n));
  }
  cfg.server_power_scale =
      flags.get_positive_double_list("server-power-scale", cfg.server_power_scale);
  cfg.server_max_ghz =
      flags.get_positive_double_list("server-max-ghz", cfg.server_max_ghz);
  require_one_per(flags, "server-cores", cfg.server_cores.size(), cfg.num_servers,
                  "server");
  require_one_per(flags, "server-power-scale", cfg.server_power_scale.size(),
                  cfg.num_servers, "server");
  require_one_per(flags, "server-max-ghz", cfg.server_max_ghz.size(),
                  cfg.num_servers, "server");
  // Parallel-DES shard count (docs/CLI.md; 1 = serial event loop).
  cfg.shards = static_cast<std::size_t>(flags.get_int_at_least(
      "shards", static_cast<std::int64_t>(cfg.shards), 1));
  return cfg;
}

ExecutionOptions parse_execution_options(const util::Flags& flags) {
  ExecutionOptions exec;
  exec.jobs = static_cast<std::size_t>(flags.get_int_at_least("jobs", 0, 0));
  // Progress goes to stderr; default it on only for interactive runs so CI
  // logs and `2> file` captures stay clean.
  exec.progress = flags.get_bool("progress", isatty(STDERR_FILENO) != 0);
  exec.telemetry.trace_path = flags.get_string("trace", "");
  const std::string format = flags.get_string("trace-format", "jsonl");
  const std::optional<obs::TraceFormat> trace_format = obs::find_trace_format(format);
  if (!trace_format) {
    util::Flags::reject("trace-format", "'jsonl' or 'chrome'", format);
  }
  exec.telemetry.trace_format = *trace_format;
  exec.telemetry.metrics_path = flags.get_string("metrics", "");
  exec.telemetry.report_dir = flags.get_string("report", "");
  // A report without the watchdog would silently drop the invariant section;
  // opt out explicitly with --watchdog false if the overhead matters.
  exec.telemetry.watchdog =
      flags.get_bool("watchdog", !exec.telemetry.report_dir.empty());
  exec.telemetry.profile = flags.get_bool("profile", false);
  return exec;
}

}  // namespace ge::exp
