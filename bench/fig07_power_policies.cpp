// Fig. 7: quality (a) and energy (b) of the Water-Filling vs Equal-Sharing
// power-distribution policies inside the GE scheduler.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(
      flags, {125.0, 150.0, 175.0, 200.0, 225.0, 250.0});
  flags.reject_unread();
  bench::print_banner(ctx, "Fig. 7", "quality and energy: WF vs ES");

  const std::vector<exp::SchedulerSpec> specs{
      exp::SchedulerSpec::parse("GE-WF"), exp::SchedulerSpec::parse("GE-ES")};
  const auto points = exp::sweep_arrival_rates(ctx.base, specs, ctx.rates, ctx.exec);

  bench::print_panel(
      ctx, "(a) service quality vs arrival rate",
      exp::series_table(points, "arrival_rate", bench::metric_quality),
      "equal under light load; WF achieves higher quality under heavy load "
      "(it funnels unused budget to the loaded cores)");

  bench::print_panel(
      ctx, "(b) energy consumption (J) vs arrival rate",
      exp::series_table(points, "arrival_rate", bench::metric_energy, 1),
      "ES consumes less energy under light load (no speed thrashing); the "
      "gap closes as the load approaches saturation -- hence the hybrid "
      "policy: ES below the critical load, WF above");
  return 0;
}
