// Ablation: response-time percentiles.  The paper optimises energy under a
// quality constraint; this bench shows what that costs (or doesn't) in tail
// latency, the metric the related tail-latency work (AccuracyTrader, CLAP)
// optimises directly.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags);
  flags.reject_unread();
  bench::print_banner(ctx, "Ablation", "response-time percentiles per scheduler");

  const std::vector<exp::SchedulerSpec> specs{
      exp::SchedulerSpec::parse("GE"), exp::SchedulerSpec::parse("BE"),
      exp::SchedulerSpec::parse("FCFS"), exp::SchedulerSpec::parse("SJF")};
  const auto points = exp::sweep_arrival_rates(ctx.base, specs, ctx.rates, ctx.exec);

  bench::print_panel(
      ctx, "(a) mean response time (ms)",
      exp::series_table(points, "arrival_rate",
                        [](const exp::RunResult& r) { return r.mean_response_ms; },
                        2),
      "GE answers *earlier* than BE on average: cut jobs complete before "
      "their deadline instead of running to full demand");

  bench::print_panel(
      ctx, "(b) p99 response time (ms)",
      exp::series_table(points, "arrival_rate",
                        [](const exp::RunResult& r) { return r.p99_response_ms; },
                        2),
      "all batch schedulers ride close to the 150 ms deadline at p99 (the "
      "energy-optimal speed finishes work just in time); queueing policies "
      "hit the deadline exactly for jobs that expire in the queue");
  return 0;
}
