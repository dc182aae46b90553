// Fig. 3: service quality (a) and energy consumption (b) of GE, OQ, BE,
// FCFS, LJF and SJF across arrival rates, fixed 150 ms deadline windows.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags);
  flags.reject_unread();
  bench::print_banner(ctx, "Fig. 3",
                      "quality and energy of six scheduling algorithms");

  const std::vector<exp::SchedulerSpec> specs{
      exp::SchedulerSpec::parse("GE"),   exp::SchedulerSpec::parse("OQ"),
      exp::SchedulerSpec::parse("BE"),   exp::SchedulerSpec::parse("FCFS"),
      exp::SchedulerSpec::parse("LJF"),  exp::SchedulerSpec::parse("SJF")};
  const auto points = exp::sweep_arrival_rates(ctx.base, specs, ctx.rates, ctx.exec);

  bench::print_panel(
      ctx, "(a) service quality vs arrival rate",
      exp::series_table(points, "arrival_rate", bench::metric_quality),
      "GE stable at ~0.90 until overload; BE highest (1.0 then decaying); OQ "
      "slightly above GE then sagging under load; FCFS below; LJF/SJF worst");

  bench::print_panel(
      ctx, "(b) energy consumption (J) vs arrival rate",
      exp::series_table(points, "arrival_rate", bench::metric_energy, 1),
      "GE cheapest among the quality-satisfying algorithms (paper: up to "
      "23.9% below BE); BE most expensive, flattening at the power budget; "
      "SJF energy falls at heavy load because it drops long jobs");

  // Headline number: best-case energy saving of GE vs BE.
  double best = 0.0;
  for (const auto& point : points) {
    const double ge_e = point.results[0].energy;
    const double be_e = point.results[2].energy;
    if (be_e > 0.0) {
      best = std::max(best, 1.0 - ge_e / be_e);
    }
  }
  std::printf("GE vs BE best-case energy saving over the sweep: %.1f%% (paper: 23.9%%)\n",
              best * 100.0);
  return 0;
}
