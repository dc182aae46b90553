// Fig. 1: fraction of execution time the GE scheduler spends in the AES
// (Aggressive Energy Saving) mode as the arrival rate grows.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags);
  flags.reject_unread();
  bench::print_banner(ctx, "Fig. 1", "execution-time share of the AES mode (GE)");

  const auto points = exp::sweep_arrival_rates(
      ctx.base, {exp::SchedulerSpec::parse("GE")}, ctx.rates, ctx.exec);
  util::Table table({"arrival_rate", "aes_fraction", "quality", "wf_round_share"});
  for (const auto& point : points) {
    const exp::RunResult& r = point.results.front();
    table.begin_row();
    table.add(point.x, 1);
    table.add(r.aes_fraction, 4);
    table.add(r.quality, 4);
    const double rounds = static_cast<double>(r.rounds);
    table.add(rounds > 0.0 ? static_cast<double>(r.wf_rounds) / rounds : 0.0, 4);
  }
  bench::print_panel(ctx, "AES-mode time fraction vs arrival rate", table,
                     "high (~0.6-0.8) under light load, falling towards ~0 once "
                     "the system approaches overload (~200 req/s), because "
                     "compensation keeps the scheduler in BQ mode");
  return 0;
}
