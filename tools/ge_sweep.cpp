// ge_sweep: the generic experiment driver.
//
// Runs any set of schedulers over any arrival-rate sweep with every
// configuration knob exposed as a flag, printing aligned tables, CSV, or
// one JSON record per run.  The fixed figNN binaries reproduce the paper;
// this tool is for exploring beyond it.
//
//   ge_sweep --schedulers GE,BE,FCFS --rates 100,150,200 --seconds 30
//            [--metric quality|energy|p99|aes|power|offline] [--csv | --json]
//            [--jobs N] [--trace F [--trace-format jsonl|chrome]]
//            [--metrics F] [--report DIR] [--watchdog] [--profile]
//            [--servers N --dispatch random|rr|jsq|least-energy]
//            [any ExperimentConfig flag, see exp/flags_config.h]
//
// Full flag reference: docs/CLI.md; telemetry schema: docs/OBSERVABILITY.md.
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "exp/flags_config.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "exp/sweep.h"
#include "util/flags.h"

namespace {

using Metric = double (*)(const ge::exp::RunResult&);

// The --metric column, or nullptr for a name that is not one.
Metric find_metric(const std::string& name) {
  using ge::exp::RunResult;
  if (name == "quality") return [](const RunResult& r) { return r.quality; };
  if (name == "energy") return [](const RunResult& r) { return r.energy; };
  if (name == "p99") return [](const RunResult& r) { return r.p99_response_ms; };
  if (name == "aes") return [](const RunResult& r) { return r.aes_fraction; };
  if (name == "power") return [](const RunResult& r) { return r.avg_power; };
  // Clairvoyant YDS energy lower bound; -1 for online schedulers (add the
  // "YDS" pseudo-scheduler to --schedulers to populate the column).
  if (name == "offline") return [](const RunResult& r) { return r.offline_energy_j; };
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const exp::ExperimentConfig base =
      exp::apply_flags(exp::ExperimentConfig::paper_defaults(), flags);

  // Names are checked before anything runs: a bad one exits 2 naming it.
  const std::string scheduler_list = flags.get_string("schedulers", "GE,BE");
  std::string error;
  const std::optional<std::vector<exp::SchedulerSpec>> specs =
      exp::parse_scheduler_list(scheduler_list, error);
  if (!specs) {
    util::Flags::reject("schedulers",
                        "a comma-separated list of registered scheduler specs (" +
                            error + ")",
                        scheduler_list);
  }
  const std::string metric = flags.get_string("metric", "quality");
  const Metric metric_value = find_metric(metric);
  if (metric_value == nullptr) {
    util::Flags::reject("metric", "one of quality, energy, p99, aes, power, offline",
                        metric);
  }
  const std::vector<double> rates =
      flags.get_positive_double_list("rates", {base.arrival_rate});

  const exp::ExecutionOptions exec = exp::parse_execution_options(flags);
  const auto points = exp::sweep_arrival_rates(base, *specs, rates, exec);

  if (flags.get_bool("json", false)) {
    // One JSON record per (rate, scheduler) run; schedulers share traces.
    for (const auto& point : points) {
      for (const auto& result : point.results) {
        std::printf("%s\n", exp::to_json(result).c_str());
      }
    }
    return 0;
  }

  const util::Table table = exp::series_table(points, "arrival_rate", metric_value,
                                             metric == "energy" ? 1 : 4);
  std::printf("metric: %s  (m=%zu, H=%.0fW, Q_GE=%.2f, %gs/point, seed %llu)\n",
              metric.c_str(), base.cores, base.power_budget, base.q_ge,
              base.duration, static_cast<unsigned long long>(base.seed));
  if (flags.get_bool("csv", false)) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
