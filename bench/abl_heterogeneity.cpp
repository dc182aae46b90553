// Ablation: heterogeneous core efficiency (the paper's future-work pointer
// at "different hardware platforms").  The power scale factor a_i rises
// linearly across the cores, so the same speed costs up to `spread` times
// more power on the worst core; total budget and workload stay fixed.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags, {150.0});
  flags.reject_unread();
  bench::print_banner(ctx, "Ablation",
                      "core-efficiency heterogeneity (a_i spread, 150 req/s)");

  const auto points = exp::sweep(
      ctx.base,
      {exp::SchedulerSpec::parse("GE"), exp::SchedulerSpec::parse("BE")},
      {1.0, 1.5, 2.0, 3.0, 4.0},
      [&ctx](exp::ExperimentConfig cfg, double spread) {
        cfg.arrival_rate = ctx.rates.front();
        cfg.hetero_spread = spread;
        return cfg;
      },
      ctx.exec);

  util::Table table({"spread", "GE_quality", "GE_energy_J", "GE_energy_cov",
                     "BE_quality", "BE_energy_J", "GE_saving"});
  for (const auto& point : points) {
    const exp::RunResult& ge = point.results[0];
    const exp::RunResult& be = point.results[1];
    table.begin_row();
    table.add(point.x, 1);
    table.add(ge.quality, 4);
    table.add(ge.energy, 1);
    table.add(ge.energy_cov, 4);
    table.add(be.quality, 4);
    table.add(be.energy, 1);
    table.add(1.0 - ge.energy / be.energy, 4);
  }
  bench::print_panel(
      ctx, "GE vs BE as the efficiency spread grows", table,
      "inefficient silicon raises energy for both schedulers while GE's "
      "relative saving persists; per-core energy imbalance (CoV) grows with "
      "the spread because equal speeds now draw unequal power.  An "
      "efficiency-aware distribution policy is an open extension -- ES/WF "
      "split watts, not work, so they do not exploit the efficient cores");
  return 0;
}
