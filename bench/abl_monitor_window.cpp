// Ablation: the quality monitor's horizon.  The paper monitors quality
// cumulatively over the whole run; a sliding window bounds the memory of
// the compensation loop.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags);
  flags.reject_unread();
  bench::print_banner(ctx, "Ablation",
                      "quality-monitor horizon (cumulative vs sliding window)");

  const std::vector<std::size_t> windows{0, 200, 1000, 5000};
  auto label = [](std::size_t w) {
    return w == 0 ? std::string("cumulative") : "win=" + std::to_string(w);
  };
  std::vector<exp::RunVariant> variants;
  for (std::size_t w : windows) {
    variants.push_back({label(w), exp::SchedulerSpec::parse("GE"),
                        [w](exp::ExperimentConfig cfg) {
                          cfg.monitor_window = w;
                          return cfg;
                        }});
  }
  const auto points = exp::sweep_variants(
      ctx.base, variants, ctx.rates, exp::configure_arrival_rate, ctx.exec);
  bench::print_panel(ctx, "(a) GE quality per monitor horizon",
                     exp::series_table(points, "arrival_rate", bench::metric_quality),
                     "all horizons hold ~Q_GE below overload; short windows "
                     "react faster after load spikes but flap more");
  bench::print_panel(ctx, "(b) GE energy (J) per monitor horizon",
                     exp::series_table(points, "arrival_rate", bench::metric_energy, 1),
                     "shorter windows compensate more eagerly and spend "
                     "slightly more energy");
  return 0;
}
