// Ablation: sensitivity to the critical-load threshold of the hybrid power
// distribution policy.  Sec. III-D warns that "the performance of the
// algorithm can be sensitive to the threshold"; this bench quantifies it.
// threshold = 0 degenerates to always-WF, threshold = +inf to always-ES.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags);
  flags.reject_unread();
  bench::print_banner(ctx, "Ablation", "critical-load threshold sensitivity");

  const std::vector<double> thresholds{0.0, 100.0, 154.0, 200.0, 1e12};
  auto label = [](double t) {
    if (t <= 0.0) {
      return std::string("always-WF");
    }
    if (t >= 1e9) {
      return std::string("always-ES");
    }
    return "crit=" + util::format_double(t, 0);
  };

  std::vector<exp::RunVariant> variants;
  for (double t : thresholds) {
    variants.push_back({label(t), exp::SchedulerSpec::parse("GE"),
                        [t](exp::ExperimentConfig cfg) {
                          cfg.critical_load = t;
                          return cfg;
                        }});
  }
  const auto points = exp::sweep_variants(
      ctx.base, variants, ctx.rates, exp::configure_arrival_rate, ctx.exec);
  bench::print_panel(ctx, "(a) GE service quality per threshold",
                     exp::series_table(points, "arrival_rate", bench::metric_quality),
                     "thresholds at/above the saturation rate behave like "
                     "always-ES and lose quality under heavy load; low "
                     "thresholds behave like always-WF");
  bench::print_panel(ctx, "(b) GE energy (J) per threshold",
                     exp::series_table(points, "arrival_rate", bench::metric_energy, 1),
                     "low thresholds pay the WF thrashing cost under light "
                     "load; the paper's 154 req/s sits at the elbow: ES energy "
                     "below it, WF quality above it");
  return 0;
}
