// Domain scenario: a web-search front-end deciding between scheduling
// policies.  Runs every algorithm on the *same* request trace across a
// light / nominal / heavy day profile and prints a decision table.
//
//   ./websearch_comparison [--seconds 20] [--seed 3]
#include <cstdio>
#include <iostream>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "exp/sweep.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.duration = flags.get_positive_double("seconds", 20.0);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int_at_least("seed", 3, 0));
  flags.reject_unread();

  struct Profile {
    const char* name;
    double rate;
  };
  const std::vector<Profile> profiles{{"night (light)", 100.0},
                                      {"daytime (nominal)", 150.0},
                                      {"peak (heavy)", 210.0}};
  const std::vector<exp::SchedulerSpec> specs{
      exp::SchedulerSpec::parse("GE"),  exp::SchedulerSpec::parse("BE"),
      exp::SchedulerSpec::parse("OQ"),  exp::SchedulerSpec::parse("FCFS"),
      exp::SchedulerSpec::parse("FDFS")};

  std::printf("Web-search scheduling comparison (Q_GE = %.2f, %zu cores, %.0f W)\n\n",
              cfg.q_ge, cfg.cores, cfg.power_budget);

  for (const Profile& profile : profiles) {
    cfg.arrival_rate = profile.rate;
    const workload::Trace trace =
        workload::Trace::generate(cfg.workload_spec(), cfg.duration);
    util::Table table(
        {"scheduler", "quality", "energy_J", "avg_W", "completed", "dropped",
         "meets_QGE"});
    double be_energy = 0.0;
    double ge_energy = 0.0;
    for (const exp::SchedulerSpec& spec : specs) {
      const exp::RunResult r = exp::run_simulation(cfg, spec, trace);
      if (r.scheduler == "BE") {
        be_energy = r.energy;
      }
      if (r.scheduler == "GE") {
        ge_energy = r.energy;
      }
      table.begin_row();
      table.add(r.scheduler);
      table.add(r.quality, 4);
      table.add(r.energy, 1);
      table.add(r.avg_power, 1);
      table.add(r.completed);
      table.add(r.dropped);
      table.add(std::string(r.quality >= cfg.q_ge - 0.005 ? "yes" : "NO"));
    }
    std::printf("-- %s: %.0f req/s over %.0f s (%zu requests) --\n", profile.name,
                profile.rate, cfg.duration, trace.size());
    table.print(std::cout);
    if (be_energy > 0.0) {
      std::printf("GE saves %.1f%% energy vs BE at this load\n\n",
                  100.0 * (1.0 - ge_energy / be_energy));
    }
  }
  std::printf(
      "Reading: BE maximises quality but burns the most energy; GE pins the\n"
      "quality at the agreed Q_GE and pockets the difference as savings.\n");
  return 0;
}
