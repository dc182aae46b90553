// Tests for the experiment runner, scheduler specs, config and sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "exp/calibrate.h"
#include "exp/config.h"
#include "exp/flags_config.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/scheduler_registry.h"
#include "exp/scheduler_spec.h"
#include "exp/sweep.h"
#include "obs/telemetry.h"
#include "workload/distributions.h"
#include "workload/trace.h"

namespace ge::exp {
namespace {

ExperimentConfig small_config(double rate = 120.0, double seconds = 4.0) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.arrival_rate = rate;
  cfg.duration = seconds;
  cfg.seed = 42;
  return cfg;
}

TEST(Config, PaperDefaultsMatchSectionIVB) {
  const ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  EXPECT_EQ(cfg.cores, 16u);
  EXPECT_DOUBLE_EQ(cfg.power_budget, 320.0);
  EXPECT_DOUBLE_EQ(cfg.q_ge, 0.9);
  EXPECT_DOUBLE_EQ(cfg.quality_c, 0.003);
  EXPECT_DOUBLE_EQ(cfg.deadline_interval, 0.150);
  EXPECT_DOUBLE_EQ(cfg.critical_load, 154.0);
  EXPECT_DOUBLE_EQ(cfg.quantum, 0.5);
  EXPECT_EQ(cfg.counter_threshold, 8);
}

TEST(Config, DerivedQuantities) {
  const ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  const double mean_demand =
      workload::BoundedParetoDistribution(cfg.demand_alpha, cfg.demand_min,
                                          cfg.demand_max)
          .mean();
  EXPECT_NEAR(mean_demand, 192.1, 0.5);
  // 16 cores at the Equal-Sharing speed (H/m = 20 W, 2 GHz) = 32000 units/s.
  const double cores = static_cast<double>(cfg.cores);
  const double capacity =
      cores * cfg.power_model().speed_for_power(cfg.power_budget / cores);
  EXPECT_NEAR(capacity, 32000.0, 1e-6);
  // Uncut work saturates that capacity at ~166.6 req/s.
  EXPECT_NEAR(capacity / mean_demand, 166.6, 0.5);
}

TEST(SchedulerSpec, RegistryHoldsEveryBuiltin) {
  // The registry adds every built-in family when it is first used; a family
  // left off its list fails here instead of as "unknown scheduler" at a
  // bench command line.
  const SchedulerRegistry& reg = SchedulerRegistry::instance();
  for (const char* name :
       {"GE", "GE-NoComp", "GE-ES", "GE-WF", "GE-RR", "OQ", "BE", "BE-P",
        "BE-S", "FCFS", "FDFS", "LJF", "SJF", "OA", "QOA", "AVR", "BKP",
        "YDS"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  EXPECT_GE(reg.size(), 18u);
}

// add() refuses a name or alias already taken, compared case-insensitively,
// and a plugin with no factory.  Each add runs in the death test's child
// process, so this binary's registry stays as it was.
TEST(SchedulerRegistry, DuplicateNameOrAliasAborts) {
  const auto plugin = [](std::string name, std::vector<std::string> aliases) {
    SchedulerPlugin p;
    p.name = std::move(name);
    p.aliases = std::move(aliases);
    p.factory = SchedulerRegistry::instance().find("GE")->factory;
    return p;
  };
  EXPECT_DEATH(SchedulerRegistry::instance().add(plugin("ge", {})),
               "duplicate scheduler name/alias: ge");
  EXPECT_DEATH(SchedulerRegistry::instance().add(plugin("MINE", {"ge-nc"})),
               "duplicate scheduler name/alias: ge-nc");
  EXPECT_DEATH(SchedulerRegistry::instance().add(plugin("MINE", {"mine"})),
               "duplicate scheduler name/alias: mine");
}

TEST(SchedulerRegistry, PluginWithoutFactoryAborts) {
  SchedulerPlugin p;
  p.name = "NOFACTORY";
  EXPECT_DEATH(SchedulerRegistry::instance().add(p),
               "scheduler plugin has no factory: NOFACTORY");
}

TEST(SchedulerSpec, ParseRoundTripEveryPlugin) {
  // Every registered plugin must round-trip display_name() -> parse();
  // registering a scheduler whose display does not parse back (or whose
  // aliases collide) fails here rather than at a bench command line.
  for (const SchedulerPlugin* plugin : SchedulerRegistry::instance().plugins()) {
    SchedulerSpec spec = SchedulerSpec::parse(plugin->name);
    EXPECT_EQ(&spec.resolved(), plugin) << plugin->name;
    const std::string name = spec.display_name();
    EXPECT_EQ(&SchedulerSpec::parse(name).resolved(), plugin) << name;
    EXPECT_EQ(SchedulerSpec::parse(name).display_name(), name) << name;
    // Case-insensitive: the lowered spelling parses to the same plugin.
    std::string lowered = name;
    std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    EXPECT_EQ(&SchedulerSpec::parse(lowered).resolved(), plugin) << lowered;
    for (const std::string& alias : plugin->aliases) {
      EXPECT_EQ(&SchedulerSpec::parse(alias).resolved(), plugin) << alias;
    }
  }
  EXPECT_TRUE(SchedulerSpec::parse("GE-NC").is("GE-NoComp"));
  EXPECT_TRUE(SchedulerSpec::parse("fcfs").is("FCFS"));
}

TEST(SchedulerSpec, ParameterizedSpecsRoundTrip) {
  const SchedulerSpec qoa = SchedulerSpec::parse("QOA[0.5]");
  ASSERT_EQ(qoa.params.size(), 1u);
  EXPECT_DOUBLE_EQ(qoa.params[0], 0.5);
  EXPECT_EQ(qoa.display_name(), "QOA[0.5]");
  EXPECT_EQ(SchedulerSpec::parse(qoa.display_name()).display_name(), "QOA[0.5]");
  // QOA defaults to the 2 - 1/beta optimum and displays it explicitly.
  EXPECT_EQ(SchedulerSpec::parse("qoa").display_name(), "QOA[1.5]");

  const SchedulerSpec bep = SchedulerSpec::parse("BE-P[0.8]");
  EXPECT_DOUBLE_EQ(bep.budget_scale, 0.8);
  EXPECT_EQ(bep.display_name(), "BE-P[0.8]");
  EXPECT_EQ(SchedulerSpec::parse("BE-P").display_name(), "BE-P");

  const SchedulerSpec bes = SchedulerSpec::parse("be-s[2.4]");
  EXPECT_DOUBLE_EQ(bes.speed_cap_ghz, 2.4);
  EXPECT_EQ(bes.display_name(), "BE-S[2.4]");
  EXPECT_EQ(SchedulerSpec::parse("BE-S").display_name(), "BE-S");
}

TEST(SchedulerSpec, DefaultSpecIsGe) {
  // SchedulerSpec{} must keep behaving as plain GE: half the test suite
  // (and the runner's defaults) construct it without parse().
  const SchedulerSpec spec;
  EXPECT_TRUE(spec.is("GE"));
  EXPECT_EQ(spec.display_name(), "GE");
}

TEST(SchedulerSpec, UnknownNameDies) {
  EXPECT_DEATH((void)SchedulerSpec::parse("NOPE"), "unknown scheduler");
}

TEST(SchedulerSpec, BadParametersDie) {
  EXPECT_DEATH((void)SchedulerSpec::parse("QOA[zero]"), "bad scheduler parameter");
  EXPECT_DEATH((void)SchedulerSpec::parse("QOA[0.5"), "expected trailing");
  EXPECT_DEATH((void)SchedulerSpec::parse("QOA[]"), "empty scheduler parameter");
  EXPECT_DEATH((void)SchedulerSpec::parse("QOA[0.5,0.6]"), "expects between");
  EXPECT_DEATH((void)SchedulerSpec::parse("QOA[-1]"), "must be positive");
  EXPECT_DEATH((void)SchedulerSpec::parse("GE[1]"), "expects between");
}

// The list parser splits on commas outside brackets and reports a bad
// entry instead of aborting; parse() keeps aborting for program-spelled
// names (the death tests above).
TEST(SchedulerSpec, ListParseIsBracketAwareAndNonAborting) {
  std::string error;
  const auto specs = parse_scheduler_list("GE,QOA[0.5],BE-P[0.8],ge-nc", error);
  ASSERT_TRUE(specs.has_value()) << error;
  ASSERT_EQ(specs->size(), 4u);
  EXPECT_EQ((*specs)[1].params, (std::vector<double>{0.5}));
  EXPECT_EQ((*specs)[2].budget_scale, 0.8);
  EXPECT_TRUE((*specs)[3].is("GE-NoComp"));
  for (const auto& [text, reason] :
       std::vector<std::pair<std::string, std::string>>{
           {"QOA[0.5,0.6]", "expects between 0 and 1 parameters, got 2"},
           {"GE,NOPE", "unknown scheduler name: NOPE"},
           {"GE,,BE", "unknown scheduler name"},
           {"", "unknown scheduler name"},
           {"QOA[0.5", "expected trailing ']'"},
           {"BE-S[-1]", "BE-S speed cap must be positive"},
           {"QOA[x]", "bad scheduler parameter 'x'"}}) {
    SCOPED_TRACE(text);
    error.clear();
    EXPECT_FALSE(parse_scheduler_list(text, error).has_value());
    EXPECT_NE(error.find(reason), std::string::npos) << error;
    EXPECT_EQ(error.find('\n'), std::string::npos);
  }
}

// --shards below 1 used to wrap through size_t (-1) or die in validate()
// with exit 134 (0, "abc"); now it is a one-line usage error.
TEST(FlagsConfig, ShardsBelowOneIsAUsageError) {
  for (const char* bad : {"-1", "0", "abc"}) {
    SCOPED_TRACE(bad);
    const char* argv[] = {"prog", "--servers", "4", "--shards", bad};
    const util::Flags flags(5, argv);
    EXPECT_EXIT((void)apply_flags(ExperimentConfig::paper_defaults(), flags),
                ::testing::ExitedWithCode(2), "--shards must be an integer >= 1");
  }
  const char* argv[] = {"prog", "--servers", "4", "--shards", "2"};
  const util::Flags flags(5, argv);
  EXPECT_EQ(apply_flags(ExperimentConfig::paper_defaults(), flags).shards, 2u);
}

// A fractional or zero per-server core count or a non-positive power scale
// exits 2 naming the flag (they used to be truncated or abort); valid
// cluster-shape values still parse.
TEST(FlagsConfig, ClusterFlagsAreRangeChecked) {
  const auto expect_usage_error = [](const char* flag, const char* value,
                                     const char* message) {
    SCOPED_TRACE(std::string(flag) + " " + value);
    const char* argv[] = {"prog", "--servers", "2", flag, value};
    const util::Flags flags(5, argv);
    EXPECT_EXIT((void)apply_flags(ExperimentConfig::paper_defaults(), flags),
                ::testing::ExitedWithCode(2), message);
  };
  expect_usage_error("--server-cores", "16,2.7",
                     "--server-cores must be a comma-separated list of integers >= 1");
  expect_usage_error("--server-cores", "16,0", "--server-cores must be");
  expect_usage_error("--server-power-scale", "1,-1",
                     "--server-power-scale must be a comma-separated list of numbers > 0");
  const char* argv[] = {"prog", "--servers", "2", "--dispatch", "JSQ",
                        "--server-cores", "16,8"};
  const util::Flags flags(7, argv);
  const ExperimentConfig cfg =
      apply_flags(ExperimentConfig::paper_defaults(), flags);
  EXPECT_EQ(cfg.dispatch, cluster::DispatchPolicy::kJsq);
  EXPECT_EQ(cfg.server_cores, (std::vector<std::size_t>{16, 8}));
}

// Lists whose length or range only ExperimentConfig::validate checked used
// to abort (134); they are usage errors now.
TEST(FlagsConfig, ListLengthsAndTenantTargetsAreUsageErrors) {
  const auto expect_usage_error = [](const char* count_flag, const char* count,
                                     const char* flag, const char* value,
                                     const char* message) {
    SCOPED_TRACE(std::string(flag) + " " + value);
    const char* argv[] = {"prog", count_flag, count, flag, value};
    const util::Flags flags(5, argv);
    EXPECT_EXIT((void)apply_flags(ExperimentConfig::paper_defaults(), flags),
                ::testing::ExitedWithCode(2), message);
  };
  expect_usage_error("--servers", "2", "--server-cores", "16",
                     "--server-cores must be a list with one entry per server");
  expect_usage_error("--servers", "2", "--server-max-ghz", "1,2,3",
                     "--server-max-ghz must be a list with one entry per server");
  expect_usage_error("--tenants", "2", "--tenant-qge", "0.9,1.5",
                     "--tenant-qge must be a comma-separated list of numbers in");
  expect_usage_error("--tenants", "2", "--tenant-qge", "0.9",
                     "--tenant-qge must be a list with one entry per tenant");
  const char* argv[] = {"prog", "--tenants", "2", "--tenant-qge", "0.9,0.8"};
  const util::Flags flags(5, argv);
  EXPECT_EQ(apply_flags(ExperimentConfig::paper_defaults(), flags).tenant_qge,
            (std::vector<double>{0.9, 0.8}));
}

TEST(FlagsConfig, TraceFormatIsAUsageError) {
  const char* argv[] = {"prog", "--trace-format", "xml"};
  const util::Flags flags(3, argv);
  EXPECT_EXIT((void)parse_execution_options(flags), ::testing::ExitedWithCode(2),
              "--trace-format must be 'jsonl' or 'chrome'");
}

TEST(FlagsConfig, RemovedEventQueueFlagIsAUsageError) {
  // The single event queue left nothing to select; the old flag must not be
  // ignored silently the way unknown flags are.
  for (const char* value : {"heap", "calendar", "junk"}) {
    SCOPED_TRACE(value);
    const char* argv[] = {"prog", "--event-queue", value};
    const util::Flags flags(3, argv);
    EXPECT_EXIT((void)apply_flags(ExperimentConfig::paper_defaults(), flags),
                ::testing::ExitedWithCode(2), "--event-queue was removed");
  }
  const char* argv[] = {"prog", "--event-queue"};
  const util::Flags flags(2, argv);
  EXPECT_EXIT((void)apply_flags(ExperimentConfig::paper_defaults(), flags),
              ::testing::ExitedWithCode(2), "--event-queue was removed");
}

TEST(SchedulerSpec, EffectiveBudgetScalesForBeP) {
  const ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  SchedulerSpec spec = SchedulerSpec::parse("BE-P");
  spec.budget_scale = 0.5;
  EXPECT_DOUBLE_EQ(effective_budget(spec, cfg), 160.0);
  EXPECT_DOUBLE_EQ(effective_budget(SchedulerSpec::parse("GE"), cfg), 320.0);
}

TEST(Runner, DeterministicForSeed) {
  const ExperimentConfig cfg = small_config();
  const RunResult a = run_simulation(cfg, SchedulerSpec{});
  const RunResult b = run_simulation(cfg, SchedulerSpec{});
  EXPECT_EQ(to_json(a), to_json(b));
}

TEST(Runner, DifferentSeedsDiffer) {
  ExperimentConfig cfg = small_config();
  const RunResult a = run_simulation(cfg, SchedulerSpec{});
  cfg.seed = 43;
  const RunResult b = run_simulation(cfg, SchedulerSpec{});
  EXPECT_NE(a.energy, b.energy);
}

TEST(Runner, AllJobsAccounted) {
  const RunResult r = run_simulation(small_config(), SchedulerSpec{});
  EXPECT_GT(r.released, 0u);
  EXPECT_EQ(r.released, r.completed + r.partial + r.dropped);
}

// Either job source is released just in time, so the event heap holds the
// events of jobs in flight (about rate x deadline window, plus the
// schedulers' own), not every arrival and deadline of the trace; the
// streamed run, on the same keys, peaks at the same count.
TEST(Runner, MaterialisedRunHoldsOnlyInFlightEvents) {
  const ExperimentConfig cfg = small_config(150.0, 135.0);
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  ASSERT_GE(trace.size(), 19000u);
  ExperimentConfig streamed_cfg = cfg;
  streamed_cfg.stream = true;
  double peaks[2] = {0.0, 0.0};
  for (const bool streamed : {false, true}) {
    SCOPED_TRACE(streamed ? "streamed" : "materialised");
    obs::RunTelemetry telem;
    telem.want_trace = false;
    const RunResult r =
        streamed ? run_simulation_stream(streamed_cfg, SchedulerSpec{}, nullptr, &telem)
                 : run_simulation(cfg, SchedulerSpec{}, trace, nullptr, &telem);
    EXPECT_EQ(r.released, trace.size());
    const double peak = telem.metrics
                            .gauge("sim.peak_pending_events", "events",
                                   obs::Gauge::Merge::kMax)
                            .value();
    EXPECT_GT(peak, 0.0);
    EXPECT_LT(peak, static_cast<double>(trace.size()) / 10.0);
    peaks[streamed ? 1 : 0] = peak;
  }
  EXPECT_EQ(peaks[0], peaks[1]);
}

TEST(Runner, PowerBudgetNeverExceeded) {
  ExperimentConfig cfg = small_config(220.0, 3.0);  // overload stresses caps
  cfg.verify_power = true;  // samples total power and GE_CHECKs the budget
  const RunResult r = run_simulation(cfg, SchedulerSpec{});
  EXPECT_GT(r.released, 0u);
}

TEST(Runner, PowerBudgetNeverExceededDiscrete) {
  ExperimentConfig cfg = small_config(220.0, 3.0);
  cfg.verify_power = true;
  cfg.discrete_speeds = true;
  const RunResult r = run_simulation(cfg, SchedulerSpec{});
  EXPECT_GT(r.released, 0u);
}

TEST(Runner, BeAchievesFullQualityAtLightLoad) {
  const RunResult r =
      run_simulation(small_config(60.0, 4.0), SchedulerSpec::parse("BE"));
  EXPECT_GT(r.quality, 0.99);
}

TEST(Runner, GeHoldsQualityNearTarget) {
  const RunResult r = run_simulation(small_config(120.0, 8.0), SchedulerSpec{});
  EXPECT_GT(r.quality, 0.85);
  EXPECT_LT(r.quality, 0.97);  // and it does exploit the slack
}

TEST(Runner, GeSavesEnergyVersusBe) {
  const ExperimentConfig cfg = small_config(150.0, 8.0);
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  const RunResult ge = run_simulation(cfg, SchedulerSpec::parse("GE"), trace);
  const RunResult be = run_simulation(cfg, SchedulerSpec::parse("BE"), trace);
  EXPECT_LT(ge.energy, be.energy);
  EXPECT_GE(be.quality, ge.quality - 1e-9);
}

TEST(Runner, AesFractionWithinBounds) {
  const RunResult r = run_simulation(small_config(), SchedulerSpec{});
  EXPECT_GE(r.aes_fraction, 0.0);
  EXPECT_LE(r.aes_fraction, 1.0);
  // BE never enters AES.
  const RunResult be = run_simulation(small_config(), SchedulerSpec::parse("BE"));
  EXPECT_DOUBLE_EQ(be.aes_fraction, 0.0);
}

TEST(Runner, SharedTraceMakesComparisonsPaired) {
  const ExperimentConfig cfg = small_config();
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  const RunResult a = run_simulation(cfg, SchedulerSpec{}, trace);
  const RunResult b = run_simulation(cfg, SchedulerSpec{}, trace);
  EXPECT_DOUBLE_EQ(a.energy, b.energy);
  EXPECT_EQ(a.released, trace.size());
}

TEST(Runner, QueuePoliciesRun) {
  for (const char* name : {"FCFS", "FDFS", "LJF", "SJF"}) {
    const RunResult r = run_simulation(small_config(), SchedulerSpec::parse(name));
    EXPECT_GT(r.released, 0u) << name;
    EXPECT_GT(r.quality, 0.0) << name;
    EXPECT_GT(r.energy, 0.0) << name;
  }
}

TEST(Runner, DiscreteSpeedsCloseToContinuous) {
  ExperimentConfig cfg = small_config(120.0, 6.0);
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  const RunResult cont = run_simulation(cfg, SchedulerSpec{}, trace);
  cfg.discrete_speeds = true;
  const RunResult disc = run_simulation(cfg, SchedulerSpec{}, trace);
  EXPECT_NEAR(disc.quality, cont.quality, 0.05);
  EXPECT_NEAR(disc.energy / cont.energy, 1.0, 0.25);
}

TEST(Sweep, SharedTraceAcrossSchedulersAtEachPoint) {
  const ExperimentConfig cfg = small_config(100.0, 2.0);
  const auto points = sweep_arrival_rates(
      cfg, {SchedulerSpec::parse("GE"), SchedulerSpec::parse("BE")}, {80.0, 120.0});
  ASSERT_EQ(points.size(), 2u);
  for (const auto& point : points) {
    ASSERT_EQ(point.results.size(), 2u);
    EXPECT_EQ(point.results[0].released, point.results[1].released);
  }
}

TEST(Sweep, SeriesTableShape) {
  const ExperimentConfig cfg = small_config(100.0, 2.0);
  const auto points =
      sweep_arrival_rates(cfg, {SchedulerSpec::parse("GE")}, {80.0, 120.0});
  const util::Table table =
      series_table(points, "rate", [](const RunResult& r) { return r.quality; });
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.columns(), 2u);
}

TEST(Calibrate, BudgetScaleReachesTargetQuality) {
  ExperimentConfig cfg = small_config(100.0, 4.0);
  const CalibrationResult cal = calibrate_budget_scale(cfg, 0.05, 1.0, 8);
  EXPECT_GT(cal.value, 0.05);
  EXPECT_LE(cal.value, 1.0);
  EXPECT_GE(cal.quality, cfg.q_ge - 0.02);
  EXPECT_GT(cal.evaluations, 1);
}

TEST(Calibrate, SpeedCapReachesTargetQuality) {
  ExperimentConfig cfg = small_config(100.0, 4.0);
  const CalibrationResult cal = calibrate_speed_cap(cfg, 0.2, 4.0, 8);
  EXPECT_GT(cal.value, 0.2);
  EXPECT_GE(cal.quality, cfg.q_ge - 0.02);
}

}  // namespace
}  // namespace ge::exp

// -- latency metrics, static power, replication, burstiness -----------------

#include "exp/replicate.h"

namespace ge::exp {
namespace {

TEST(Runner, ResponseTimesBoundedByDeadlineWindow) {
  const RunResult r = run_simulation(small_config(), SchedulerSpec{});
  EXPECT_GT(r.mean_response_ms, 0.0);
  EXPECT_LE(r.p99_response_ms, 150.0 + 1e-6);
  EXPECT_LE(r.p50_response_ms, r.p95_response_ms + 1e-9);
  EXPECT_LE(r.p95_response_ms, r.p99_response_ms + 1e-9);
}

TEST(Runner, GeRespondsNoLaterThanBeOnAverage) {
  const ExperimentConfig cfg = small_config(140.0, 6.0);
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  const RunResult ge = run_simulation(cfg, SchedulerSpec::parse("GE"), trace);
  const RunResult be = run_simulation(cfg, SchedulerSpec::parse("BE"), trace);
  EXPECT_LE(ge.mean_response_ms, be.mean_response_ms + 1.0);
}

TEST(Runner, StaticEnergyIsAConstantOffset) {
  ExperimentConfig cfg = small_config();
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  const RunResult without = run_simulation(cfg, SchedulerSpec{}, trace);
  cfg.static_power_per_core = 2.0;
  const RunResult with = run_simulation(cfg, SchedulerSpec{}, trace);
  EXPECT_DOUBLE_EQ(without.static_energy, 0.0);
  EXPECT_GT(with.static_energy, 0.0);
  // Dynamic energy is unaffected: static power is a pure offset (the paper's
  // justification for ignoring it).
  EXPECT_DOUBLE_EQ(with.energy, without.energy);
}

TEST(Runner, CrrDominatesPlainRr) {
  // Plain RR restarts every distribution cycle at core 0; with the frequent
  // single-job batches of idle-core triggering that degenerates to piling
  // all work on the first core.  C-RR (the paper's choice) must dominate.
  const ExperimentConfig cfg = small_config(150.0, 6.0);
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  const RunResult crr = run_simulation(cfg, SchedulerSpec::parse("GE"), trace);
  const RunResult rr = run_simulation(cfg, SchedulerSpec::parse("GE-RR"), trace);
  EXPECT_EQ(rr.scheduler, "GE-RR");
  EXPECT_GT(crr.quality, rr.quality);
}

TEST(Runner, BurstyWorkloadRunsAndDegradesGracefully) {
  ExperimentConfig cfg = small_config(130.0, 8.0);
  const RunResult plain = run_simulation(cfg, SchedulerSpec{});
  cfg.burst_peak_to_mean = 3.0;
  cfg.verify_power = true;  // caps must hold under bursts too
  const RunResult bursty = run_simulation(cfg, SchedulerSpec{});
  EXPECT_GT(bursty.released, 0u);
  EXPECT_LE(bursty.quality, plain.quality + 0.02);
}

TEST(Replicate, SummarisesAcrossSeeds) {
  const ExperimentConfig cfg = small_config(120.0, 2.0);
  const ReplicationSummary summary = replicate(cfg, SchedulerSpec{}, 3);
  EXPECT_EQ(summary.replicas, 3);
  EXPECT_EQ(summary.quality.count(), 3u);
  EXPECT_GT(summary.energy.mean(), 0.0);
  // Different seeds: energies differ, so a positive spread.
  EXPECT_GT(summary.energy.stddev(), 0.0);
}

TEST(Replicate, QualityStableAcrossSeeds) {
  const ExperimentConfig cfg = small_config(120.0, 4.0);
  const ReplicationSummary summary = replicate(cfg, SchedulerSpec{}, 4);
  EXPECT_NEAR(summary.quality.mean(), 0.9, 0.03);
  EXPECT_LT(summary.quality.stddev(), 0.02);
}

}  // namespace
}  // namespace ge::exp
