// Fig. 11: GE quality (a) and energy (b) versus the number of cores 2^x,
// x = 0..6, with the total power budget held fixed.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags, {150.0});
  flags.reject_unread();
  bench::print_banner(ctx, "Fig. 11",
                      "effect of the core count (fixed 320 W total budget)");

  // One engine point per core count: the workload is identical everywhere,
  // but each row keeps its own trace slot exactly as the serial loop did.
  std::vector<double> log_cores;
  for (int x = 0; x <= 6; ++x) {
    log_cores.push_back(static_cast<double>(x));
  }
  const auto points = exp::sweep(
      ctx.base, {exp::SchedulerSpec::parse("GE")}, log_cores,
      [&ctx](exp::ExperimentConfig cfg, double x) {
        cfg.arrival_rate = ctx.rates.front();
        cfg.cores = static_cast<std::size_t>(1) << static_cast<int>(x);
        return cfg;
      },
      ctx.exec);

  util::Table table({"log2_cores", "cores", "quality", "energy_J", "avg_speed_GHz"});
  for (const auto& point : points) {
    const exp::RunResult& r = point.results.front();
    table.begin_row();
    table.add(static_cast<std::uint64_t>(point.x));
    table.add(static_cast<std::uint64_t>(1)
              << static_cast<int>(point.x));
    table.add(r.quality, 4);
    table.add(r.energy, 1);
    table.add(r.avg_speed_ghz, 3);
  }
  bench::print_panel(ctx, "GE quality and energy vs core count (150 req/s)", table,
                     "few cores: poor quality and high energy (convex power "
                     "makes fast cores expensive); quality rises and energy "
                     "falls with more cores until the system saturates and "
                     "extra cores stop mattering");
  return 0;
}
