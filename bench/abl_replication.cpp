// Ablation: seed sensitivity.  Re-runs the headline comparison over several
// independent workload seeds and reports mean +/- stddev, demonstrating the
// single-seed figures are not flukes.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "exp/replicate.h"
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx =
      bench::parse_figure_args(flags, {100.0, 150.0, 200.0});
  const std::int64_t replicas_flag = flags.get_int_at_least("replicas", 5, 1);
  if (replicas_flag > std::numeric_limits<int>::max()) {
    util::Flags::reject("replicas", "an integer in [1, 2147483647]",
                        std::to_string(replicas_flag));
  }
  const int replicas = static_cast<int>(replicas_flag);
  flags.reject_unread();
  bench::print_banner(ctx, "Ablation",
                      "seed replication (" + std::to_string(replicas) +
                          " seeds per point, mean +/- stddev)");

  util::Table table({"arrival_rate", "GE_quality", "GE_energy_J", "BE_quality",
                     "BE_energy_J", "GE_saving"});
  for (double rate : ctx.rates) {
    exp::ExperimentConfig cfg = ctx.base;
    cfg.arrival_rate = rate;
    const exp::ReplicationSummary ge =
        exp::replicate(cfg, exp::SchedulerSpec::parse("GE"), replicas, ctx.exec);
    const exp::ReplicationSummary be =
        exp::replicate(cfg, exp::SchedulerSpec::parse("BE"), replicas, ctx.exec);
    table.begin_row();
    table.add(rate, 1);
    table.add(util::format_double(ge.quality.mean(), 4) + "+/-" +
              util::format_double(ge.quality.stddev(), 4));
    table.add(util::format_double(ge.energy.mean(), 0) + "+/-" +
              util::format_double(ge.energy.stddev(), 0));
    table.add(util::format_double(be.quality.mean(), 4) + "+/-" +
              util::format_double(be.quality.stddev(), 4));
    table.add(util::format_double(be.energy.mean(), 0) + "+/-" +
              util::format_double(be.energy.stddev(), 0));
    table.add(1.0 - ge.energy.mean() / be.energy.mean(), 4);
  }
  bench::print_panel(ctx, "GE vs BE across seeds", table,
                     "standard deviations are tiny relative to the GE-vs-BE "
                     "gaps: the figure-level conclusions are seed-robust");
  return 0;
}
