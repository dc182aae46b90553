// Fig. 6: core-speed statistics under the two power-distribution policies --
// time-average busy speed (a) and speed variance (b) for Water-Filling vs
// Equal-Sharing.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags);
  flags.reject_unread();
  bench::print_banner(ctx, "Fig. 6",
                      "speed thrashing: WF vs ES core-speed statistics");

  const std::vector<exp::SchedulerSpec> specs{
      exp::SchedulerSpec::parse("GE-WF"), exp::SchedulerSpec::parse("GE-ES")};
  const auto points = exp::sweep_arrival_rates(ctx.base, specs, ctx.rates, ctx.exec);

  bench::print_panel(
      ctx, "(a) average busy-core speed (GHz) vs arrival rate",
      exp::series_table(points, "arrival_rate",
                        [](const exp::RunResult& r) { return r.avg_speed_ghz; }),
      "nearly identical under light load; WF runs somewhat faster than ES "
      "under heavy (not overloaded) load because it exploits unused budget");

  bench::print_panel(
      ctx, "(b) speed variance (GHz^2) vs arrival rate",
      exp::series_table(points, "arrival_rate",
                        [](const exp::RunResult& r) { return r.speed_variance; }),
      "WF variance well above ES everywhere (the thrashing the hybrid policy "
      "avoids); ES keeps core speeds tightly clustered");
  return 0;
}
