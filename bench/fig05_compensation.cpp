// Fig. 5: the quality-compensation policy -- GE with vs without the
// AES->BQ switch.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags);
  flags.reject_unread();
  bench::print_banner(ctx, "Fig. 5", "impact of the quality compensation policy");

  const std::vector<exp::SchedulerSpec> specs{
      exp::SchedulerSpec::parse("GE"), exp::SchedulerSpec::parse("GE-NoComp")};
  const auto points = exp::sweep_arrival_rates(ctx.base, specs, ctx.rates, ctx.exec);

  bench::print_panel(
      ctx, "(a) service quality vs arrival rate",
      exp::series_table(points, "arrival_rate", bench::metric_quality),
      "with compensation the quality holds at ~0.90; without it the LF "
      "cutting overshoots and quality drifts below the target as load grows");

  bench::print_panel(
      ctx, "(b) energy consumption (J) vs arrival rate",
      exp::series_table(points, "arrival_rate", bench::metric_energy, 1),
      "compensation costs slightly more energy (the BQ episodes) in exchange "
      "for the quality guarantee");
  return 0;
}
