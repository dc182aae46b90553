// Domain scenario: capacity planning.  Given a target arrival rate and a
// quality promise, search the (core count, power budget) space for the
// cheapest server configuration that still honours Q_GE under GE.
//
//   ./capacity_planning [--rate 180] [--qge 0.9] [--seconds 15]
#include <cstdio>
#include <iostream>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  exp::ExperimentConfig base = exp::ExperimentConfig::paper_defaults();
  base.arrival_rate = flags.get_positive_double("rate", 180.0);
  base.q_ge = flags.get_fraction("qge", 0.9);
  base.duration = flags.get_positive_double("seconds", 15.0);
  base.seed = static_cast<std::uint64_t>(flags.get_int_at_least("seed", 5, 0));
  flags.reject_unread();

  const std::vector<std::size_t> core_options{4, 8, 16, 32};
  const std::vector<double> budget_options{120.0, 200.0, 320.0, 480.0};

  std::printf("Capacity planning: %.0f req/s, promise Q_GE = %.2f\n\n",
              base.arrival_rate, base.q_ge);
  util::Table table({"cores", "budget_W", "quality", "avg_W", "meets_QGE"});
  double best_power = 1e18;
  std::size_t best_cores = 0;
  double best_budget = 0.0;
  for (std::size_t cores : core_options) {
    for (double budget : budget_options) {
      exp::ExperimentConfig cfg = base;
      cfg.cores = cores;
      cfg.power_budget = budget;
      // Keep the hybrid switch meaningful when capacity shrinks.
      const exp::RunResult r = exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));
      const bool ok = r.quality >= cfg.q_ge - 0.005;
      table.begin_row();
      table.add(static_cast<std::uint64_t>(cores));
      table.add(budget, 0);
      table.add(r.quality, 4);
      table.add(r.avg_power, 1);
      table.add(std::string(ok ? "yes" : "no"));
      if (ok && r.avg_power < best_power) {
        best_power = r.avg_power;
        best_cores = cores;
        best_budget = budget;
      }
    }
  }
  table.print(std::cout);
  if (best_cores > 0) {
    std::printf(
        "\nCheapest feasible configuration: %zu cores with a %.0f W cap "
        "(%.1f W actually drawn).\n",
        best_cores, best_budget, best_power);
    std::printf("More cores at the same budget run slower-and-wider, which the "
                "convex power curve rewards.\n");
  } else {
    std::printf("\nNo sampled configuration meets the promise; raise the budget "
                "or relax Q_GE.\n");
  }
  return 0;
}
