// Ablation: bursty arrivals.  The paper evaluates homogeneous Poisson
// traffic; here an on-off modulated process raises the instantaneous rate
// above the critical load while the mean stays fixed, stressing the
// compensation policy and the hybrid ES/WF switch.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags, {130.0});
  flags.reject_unread();
  bench::print_banner(ctx, "Ablation",
                      "burstiness (on-off arrivals, fixed 130 req/s mean)");

  // Each burst ratio shapes the workload, so each is its own engine point;
  // GE and BE pair up on the point's shared trace.
  const auto points = exp::sweep(
      ctx.base,
      {exp::SchedulerSpec::parse("GE"), exp::SchedulerSpec::parse("BE")},
      {1.0, 1.5, 2.0, 3.0, 4.0},
      [&ctx](exp::ExperimentConfig cfg, double ratio) {
        cfg.arrival_rate = ctx.rates.front();
        cfg.burst_peak_to_mean = ratio;
        return cfg;
      },
      ctx.exec);

  util::Table table({"peak_to_mean", "GE_quality", "GE_energy_J", "GE_aes_frac",
                     "BE_quality", "BE_energy_J", "GE_saving"});
  for (const auto& point : points) {
    const exp::RunResult& ge = point.results[0];
    const exp::RunResult& be = point.results[1];
    table.begin_row();
    table.add(point.x, 1);
    table.add(ge.quality, 4);
    table.add(ge.energy, 1);
    table.add(ge.aes_fraction, 4);
    table.add(be.quality, 4);
    table.add(be.energy, 1);
    table.add(1.0 - ge.energy / be.energy, 4);
  }
  bench::print_panel(ctx, "GE vs BE under increasing burstiness", table,
                     "bursts erode quality for both schedulers, but GE's "
                     "compensation policy keeps it near Q_GE far longer than "
                     "its AES-mode share would suggest; energy savings persist");
  return 0;
}
