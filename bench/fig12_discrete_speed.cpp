// Fig. 12: GE with continuous versus discrete speed scaling (0.2 GHz
// operating-point ladder, rectification rule of Sec. IV-A-5).
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags);
  flags.reject_unread();
  bench::print_banner(ctx, "Fig. 12", "continuous vs discrete speed scaling");

  const std::vector<exp::RunVariant> variants{
      {"continuous", exp::SchedulerSpec::parse("GE"), nullptr},
      {"discrete", exp::SchedulerSpec::parse("GE"),
       [](exp::ExperimentConfig cfg) {
         cfg.discrete_speeds = true;
         return cfg;
       }}};
  const auto points = exp::sweep_variants(
      ctx.base, variants, ctx.rates, exp::configure_arrival_rate, ctx.exec);
  bench::print_panel(ctx, "(a) service quality vs arrival rate",
                     exp::series_table(points, "arrival_rate", bench::metric_quality),
                     "discrete scaling loses a little quality under load "
                     "(cores cannot hit the ideal speed)");
  bench::print_panel(ctx, "(b) energy (J) vs arrival rate",
                     exp::series_table(points, "arrival_rate", bench::metric_energy, 1),
                     "discrete scaling consumes marginally different energy "
                     "for the same reason (paper: marginally less)");
  return 0;
}
