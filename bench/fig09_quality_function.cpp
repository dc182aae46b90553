// Fig. 9: effect of the quality-function concavity c -- (a) GE service
// quality near/over the overload point for c in {0.0005..0.009}; (b) the
// quality functions themselves.
#include "fig_common.h"
#include "quality/quality_function.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(
      flags, {180.0, 200.0, 220.0, 240.0});
  flags.reject_unread();
  bench::print_banner(ctx, "Fig. 9", "effect of the quality-function concavity c");

  const std::vector<double> cs{0.0005, 0.001, 0.002, 0.003, 0.005, 0.009};

  // Panel (a): GE quality vs arrival rate, one series (variant) per c.
  std::vector<exp::RunVariant> variants;
  for (double c : cs) {
    variants.push_back({"c=" + util::format_double(c, 4),
                        exp::SchedulerSpec::parse("GE"),
                        [c](exp::ExperimentConfig cfg) {
                          cfg.quality_c = c;
                          return cfg;
                        }});
  }
  const auto points = exp::sweep_variants(
      ctx.base, variants, ctx.rates, exp::configure_arrival_rate, ctx.exec);
  bench::print_panel(ctx, "(a) GE service quality vs arrival rate, per c",
                     exp::series_table(points, "arrival_rate", bench::metric_quality),
                     "larger c (more concave) keeps quality higher under "
                     "overload: partial evaluation buys more quality per unit "
                     "of work");

  // Panel (b): the quality functions themselves.
  std::vector<std::string> fn_header{"x"};
  for (double c : cs) {
    fn_header.push_back("c=" + util::format_double(c, 4));
  }
  util::Table fn_table(std::move(fn_header));
  for (double x = 0.0; x <= 3000.0; x += 250.0) {
    fn_table.begin_row();
    fn_table.add(x, 0);
    for (double c : cs) {
      const quality::ExponentialQuality f(c, ctx.base.demand_max);
      fn_table.add(f.value(x), 4);
    }
  }
  bench::print_panel(ctx, "(b) quality function f(x) per c (xmax=1000)", fn_table,
                     "larger c saturates faster (stronger diminishing returns)");
  return 0;
}
