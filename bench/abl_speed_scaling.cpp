// Ablation: the online speed-scaling zoo (OA / qOA / AVR / BKP) on the
// repo's workload, reproducing the shape of Abousamra-Bunde-Pruhs, "An
// Experimental Comparison of Speed Scaling Algorithms with Deadline
// Feasibility Constraints" (Green Computing 2012 / SUSCOM 2013).  The power
// budget is slack so every scheduler meets every deadline and the contest is
// pure energy; BE rides along as the repo-native reference point.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  bench::FigureContext ctx = bench::parse_figure_args(flags);
  flags.reject_unread();
  // Deadline feasibility, not the power cap, is the binding constraint in
  // the ABP experiments; keep Equal-Sharing slack unless the user overrides.
  ctx.base.power_budget = std::max(ctx.base.power_budget, 1e6);
  bench::print_banner(ctx, "Ablation", "speed-scaling zoo (ABP comparison)");

  const std::vector<exp::RunVariant> variants = {
      {"OA", exp::SchedulerSpec::parse("OA"), {}},
      {"qOA[0.5]", exp::SchedulerSpec::parse("QOA[0.5]"), {}},
      {"qOA[0.75]", exp::SchedulerSpec::parse("QOA[0.75]"), {}},
      {"qOA[1.5]", exp::SchedulerSpec::parse("QOA[1.5]"), {}},
      {"AVR", exp::SchedulerSpec::parse("AVR"), {}},
      {"BKP", exp::SchedulerSpec::parse("BKP"), {}},
      {"BE", exp::SchedulerSpec::parse("BE"), {}},
  };
  const auto points = exp::sweep_variants(
      ctx.base, variants, ctx.rates, exp::configure_arrival_rate, ctx.exec);
  bench::print_panel(
      ctx, "(a) dynamic energy (J) per algorithm",
      exp::series_table(points, "arrival_rate", bench::metric_energy, 1),
      "ABP Fig. 2-4: OA <= AVR <= BKP at low/moderate load (BKP's "
      "e-competitive estimator over-provisions, AVR double-counts "
      "overlapping densities); among the qOA variants the tuned q tracks "
      "OA most closely while q = 1.5 races ahead and pays for it");
  bench::print_panel(
      ctx, "(b) completed jobs (deadline feasibility)",
      exp::series_table(
          points, "arrival_rate",
          [](const exp::RunResult& r) { return double(r.completed); }, 0),
      "all algorithms are deadline-feasible under a slack power cap: "
      "completed == released at every point");
  bench::print_panel(
      ctx, "(c) mean response (ms)",
      exp::series_table(
          points, "arrival_rate",
          [](const exp::RunResult& r) { return r.mean_response_ms; }, 3),
      "faster-than-OA policies (qOA[1.5], BKP) buy latency with energy; "
      "q < 1 stretches jobs toward their deadlines");
  return 0;
}
