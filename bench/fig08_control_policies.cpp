// Fig. 8: the quality control policy (GE) versus the power control (BE-P)
// and speed control (BE-S) policies.  BE-P and BE-S are calibrated offline
// at the lightest sweep rate: the least budget / speed cap that still
// achieves Q_GE there (Sec. IV-F).
#include <cstdio>

#include "exp/calibrate.h"
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags);
  flags.reject_unread();
  bench::print_banner(ctx, "Fig. 8", "quality vs power vs speed control policies");

  // Calibrate at the server's design point (the critical load): the least
  // budget / speed cap whose BE run still delivers Q_GE there.
  exp::ExperimentConfig cal_cfg = ctx.base;
  cal_cfg.arrival_rate = ctx.base.critical_load;
  // Shorter calibration runs keep the bisection cheap; the knob transfers.
  cal_cfg.duration = std::min(cal_cfg.duration, 20.0);
  const exp::CalibrationResult budget_cal = exp::calibrate_budget_scale(cal_cfg);
  const exp::CalibrationResult speed_cal = exp::calibrate_speed_cap(cal_cfg);
  std::printf(
      "calibration at %.0f req/s: BE-P budget scale %.3f (%.0f W, quality %.3f, "
      "%d runs); BE-S speed cap %.3f GHz (quality %.3f, %d runs)\n\n",
      cal_cfg.arrival_rate, budget_cal.value, budget_cal.value * ctx.base.power_budget,
      budget_cal.quality, budget_cal.evaluations, speed_cal.value, speed_cal.quality,
      speed_cal.evaluations);

  exp::SchedulerSpec bep = exp::SchedulerSpec::parse("BE-P");
  bep.budget_scale = budget_cal.value;
  exp::SchedulerSpec bes = exp::SchedulerSpec::parse("BE-S");
  bes.speed_cap_ghz = speed_cal.value;
  const std::vector<exp::SchedulerSpec> specs{exp::SchedulerSpec::parse("GE"), bep,
                                              bes};
  const auto points = exp::sweep_arrival_rates(ctx.base, specs, ctx.rates, ctx.exec);

  bench::print_panel(
      ctx, "(a) service quality vs arrival rate",
      exp::series_table(points, "arrival_rate", bench::metric_quality),
      "GE holds ~0.90 across the sweep; BE-P and BE-S sag below the target "
      "once the load exceeds the calibration point (the critical load), "
      "converging with GE deep in overload.  (The paper additionally ranks "
      "BE-P above BE-S; with our calibration the two are close, see "
      "EXPERIMENTS.md)");

  bench::print_panel(
      ctx, "(b) energy consumption (J) vs arrival rate",
      exp::series_table(points, "arrival_rate", bench::metric_energy, 1),
      "GE spends a little more energy than the two static control policies "
      "to keep the quality promise");
  return 0;
}
