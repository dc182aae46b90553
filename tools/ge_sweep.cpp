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
#include <string>
#include <vector>

#include "exp/flags_config.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "exp/sweep.h"
#include "util/flags.h"

namespace {

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) {
      comma = text.size();
    }
    out.push_back(text.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

double metric_value(const ge::exp::RunResult& r, const std::string& metric) {
  if (metric == "energy") {
    return r.energy;
  }
  if (metric == "p99") {
    return r.p99_response_ms;
  }
  if (metric == "aes") {
    return r.aes_fraction;
  }
  if (metric == "power") {
    return r.avg_power;
  }
  if (metric == "offline") {
    // Clairvoyant YDS energy lower bound; -1 for online schedulers (add
    // the "YDS" pseudo-scheduler to --schedulers to populate the column).
    return r.offline_energy_j;
  }
  return r.quality;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const exp::ExperimentConfig base =
      exp::apply_flags(exp::ExperimentConfig::paper_defaults(), flags);

  std::vector<exp::SchedulerSpec> specs;
  for (const std::string& name :
       split_list(flags.get_string("schedulers", "GE,BE"))) {
    specs.push_back(exp::SchedulerSpec::parse(name));
  }
  const std::vector<double> rates =
      flags.get_positive_double_list("rates", {base.arrival_rate});

  const exp::ExecutionOptions exec = exp::parse_execution_options(flags);
  const auto points = exp::sweep_arrival_rates(base, specs, rates, exec);

  if (flags.get_bool("json", false)) {
    // One JSON record per (rate, scheduler) run; schedulers share traces.
    for (const auto& point : points) {
      for (const auto& result : point.results) {
        std::printf("%s\n", exp::to_json(result).c_str());
      }
    }
    return 0;
  }

  const std::string metric = flags.get_string("metric", "quality");
  const util::Table table = exp::series_table(
      points, "arrival_rate",
      [&metric](const exp::RunResult& r) { return metric_value(r, metric); },
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
