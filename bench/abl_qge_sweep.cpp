// Ablation: the quality-energy frontier.  Sec. II-C notes "more energy can
// be saved with less Q_GE"; this bench sweeps the promised quality level and
// reports the energy GE needs to honour it (BE = the Q_GE -> 1.0 limit).
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags, {150.0});
  flags.reject_unread();
  bench::print_banner(ctx, "Ablation", "energy as a function of the promised Q_GE");

  const std::vector<double> targets{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99};
  exp::ExperimentConfig cfg = ctx.base;
  cfg.arrival_rate = ctx.rates.front();

  // One engine point: the BE reference plus one GE run per quality target,
  // all on the same trace.  Task 0 is BE; task 1+i is targets[i].
  exp::ExperimentPlan plan;
  plan.add(cfg, exp::SchedulerSpec::parse("BE"), 0);
  for (double target : targets) {
    exp::ExperimentConfig ge_cfg = cfg;
    ge_cfg.q_ge = target;
    plan.add(ge_cfg, exp::SchedulerSpec::parse("GE"), 0);
  }
  const std::vector<exp::RunResult> results = exp::run_plan(plan, ctx.exec);
  const exp::RunResult& be = results.front();

  util::Table table(
      {"q_ge", "quality", "energy_J", "saving_vs_BE", "aes_fraction"});
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const exp::RunResult& r = results[i + 1];
    table.begin_row();
    table.add(targets[i], 2);
    table.add(r.quality, 4);
    table.add(r.energy, 1);
    table.add(1.0 - r.energy / be.energy, 4);
    table.add(r.aes_fraction, 4);
  }
  bench::print_panel(
      ctx, "GE energy vs promised quality (150 req/s; BE reference energy " +
               util::format_double(be.energy, 1) + " J)",
      table,
      "energy decreases monotonically as the quality promise is relaxed; the "
      "achieved quality tracks the promise (the constraint binds)");
  return 0;
}
