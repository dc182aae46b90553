// Fig. 10: GE quality (a) and energy (b) under different total power
// budgets H in {80, 160, 320, 480} W.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags);
  flags.reject_unread();
  bench::print_banner(ctx, "Fig. 10", "effect of the total power budget");

  const std::vector<double> budgets{80.0, 160.0, 320.0, 480.0};
  std::vector<exp::RunVariant> variants;
  for (double budget : budgets) {
    variants.push_back({"H=" + util::format_double(budget, 0) + "W",
                        exp::SchedulerSpec::parse("GE"),
                        [budget](exp::ExperimentConfig cfg) {
                          cfg.power_budget = budget;
                          return cfg;
                        }});
  }
  const auto points = exp::sweep_variants(
      ctx.base, variants, ctx.rates, exp::configure_arrival_rate, ctx.exec);
  bench::print_panel(ctx, "(a) GE service quality vs arrival rate per budget",
                     exp::series_table(points, "arrival_rate", bench::metric_quality),
                     "large budgets are unnecessary under light load; under "
                     "heavy load more budget keeps quality stable (80 W "
                     "collapses first)");
  bench::print_panel(ctx, "(b) GE energy (J) vs arrival rate per budget",
                     exp::series_table(points, "arrival_rate", bench::metric_energy, 1),
                     "energy grows with load until the budget saturates, then "
                     "flattens -- the knee appears earlier for small budgets");
  return 0;
}
