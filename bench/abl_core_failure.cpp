// Ablation: fault injection.  k of the 16 cores fail halfway through the
// run; jobs pinned to them are stranded (no migration, Sec. II-B) and the
// survivors inherit the whole power budget.  Measures how gracefully GE's
// compensation absorbs a capacity loss the paper never models.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags, {150.0});
  flags.reject_unread();
  bench::print_banner(ctx, "Ablation",
                      "core failures at t = duration/2 (150 req/s)");

  const auto points = exp::sweep(
      ctx.base,
      {exp::SchedulerSpec::parse("GE"), exp::SchedulerSpec::parse("BE")},
      {0.0, 2.0, 4.0, 8.0, 12.0},
      [&ctx](exp::ExperimentConfig cfg, double failed) {
        cfg.arrival_rate = ctx.rates.front();
        cfg.failure_cores = static_cast<std::size_t>(failed);
        cfg.failure_time = failed > 0.0 ? cfg.duration / 2.0 : -1.0;
        return cfg;
      },
      ctx.exec);

  util::Table table({"failed_cores", "GE_quality", "GE_energy_J", "GE_aes_frac",
                     "BE_quality", "BE_energy_J"});
  for (const auto& point : points) {
    const exp::RunResult& ge = point.results[0];
    const exp::RunResult& be = point.results[1];
    table.begin_row();
    table.add(static_cast<std::uint64_t>(point.x));
    table.add(ge.quality, 4);
    table.add(ge.energy, 1);
    table.add(ge.aes_fraction, 4);
    table.add(be.quality, 4);
    table.add(be.energy, 1);
  }
  bench::print_panel(
      ctx, "GE and BE under partial core failure", table,
      "losing a few cores barely dents quality (survivors inherit the budget "
      "and the convex power curve lets them run faster); GE drops its AES "
      "share to compensate; beyond ~half the cores the capacity loss wins");
  return 0;
}
