// Fig. 4: quality (a) and energy (b) with random deadline windows drawn from
// U[150 ms, 500 ms]; deadlines are no longer agreeable, so FDFS joins.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  bench::FigureContext ctx = bench::parse_figure_args(flags);
  flags.reject_unread();
  ctx.base.deadline_interval_max = 0.500;  // random windows (Sec. IV-C)
  bench::print_banner(ctx, "Fig. 4",
                      "seven algorithms with random deadline windows [150,500] ms");

  const std::vector<exp::SchedulerSpec> specs{
      exp::SchedulerSpec::parse("GE"),   exp::SchedulerSpec::parse("OQ"),
      exp::SchedulerSpec::parse("BE"),   exp::SchedulerSpec::parse("FCFS"),
      exp::SchedulerSpec::parse("FDFS"), exp::SchedulerSpec::parse("LJF"),
      exp::SchedulerSpec::parse("SJF")};
  const auto points = exp::sweep_arrival_rates(ctx.base, specs, ctx.rates, ctx.exec);

  bench::print_panel(
      ctx, "(a) service quality vs arrival rate",
      exp::series_table(points, "arrival_rate", bench::metric_quality),
      "GE still pinned at ~0.90 with least energy; FCFS degrades badly "
      "(early arrivals can have late deadlines); FDFS beats the other "
      "single-job policies because it respects deadline order");

  bench::print_panel(
      ctx, "(b) energy consumption (J) vs arrival rate",
      exp::series_table(points, "arrival_rate", bench::metric_energy, 1),
      "same ordering as Fig. 3b: GE cheapest among quality-satisfying "
      "algorithms, BE most expensive");
  return 0;
}
