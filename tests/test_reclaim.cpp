// Tests for the reclaim advisor (src/obs/analysis/reclaim.h): a fully
// hand-computed tiny case, a differential oracle against opt::yds_min_energy,
// the discrete-ladder envelope pricing, and the bound chain
//
//   offline_j <= cont_j <= disc_j <= realized_j
//
// across the golden cluster configs and a stream x shards fuzz matrix
// (where the advisor's numbers must also be bit-identical across the
// streaming and sharded paths, like every other output).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "agreeable_instances.h"
#include "golden_cases.h"
#include "cluster/cluster.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/dashboard.h"
#include "obs/analysis/reclaim.h"
#include "obs/analysis/report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "opt/yds.h"
#include "power/discrete_speed.h"
#include "power/power_model.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace ge {
namespace {

using obs::TraceBuffer;
using obs::TraceEvent;
using obs::TraceEventType;
using obs::TraceTaskInfo;
using obs::analysis::ReclaimAnalysis;
using obs::analysis::ServerReclaim;
using obs::analysis::TaskAnalysis;
using obs::analysis::TaskInput;
using testdata::reclaim_digest;
using testdata::run_and_reclaim;
using testdata::RunReclaim;

// One synthetic job: arrival -> exec slice(s) on core 0 -> completion.
struct SynthJob {
  std::int64_t id;
  double arrival;
  double deadline;
  // (t0, t1, speed) slices, non-overlapping across jobs.
  std::vector<std::array<double, 3>> slices;
};

TraceBuffer synth_buffer(const std::vector<SynthJob>& jobs) {
  TraceBuffer buf;
  for (const SynthJob& j : jobs) {
    TraceEvent ev;
    ev.type = TraceEventType::kArrival;
    ev.t = j.arrival;
    ev.job = j.id;
    double work = 0.0;
    for (const auto& s : j.slices) {
      work += (s[1] - s[0]) * s[2];
    }
    ev.a = work;        // demand
    ev.b = j.deadline;  // deadline
    buf.push(ev);
  }
  for (const SynthJob& j : jobs) {
    double work = 0.0;
    for (const auto& s : j.slices) {
      TraceEvent ev;
      ev.type = TraceEventType::kExec;
      ev.t = s[0];
      ev.t2 = s[1];
      ev.core = 0;
      ev.job = j.id;
      ev.a = s[2];
      buf.push(ev);
      work += (s[1] - s[0]) * s[2];
    }
    TraceEvent done;
    done.type = TraceEventType::kCompletion;
    done.t = j.slices.back()[1];
    done.core = 0;
    done.job = j.id;
    done.a = work;
    done.b = work;
    done.c = 1.0;
    buf.push(done);
  }
  return buf;
}

TraceTaskInfo synth_info(std::size_t cores) {
  TraceTaskInfo info;
  info.task = 0;
  info.scheduler = "GE";
  info.arrival_rate = 4.0;
  info.cores = cores;
  info.power_budget = 20.0;
  info.power_model_json = "{\"a\": 5, \"beta\": 2, \"units_per_ghz\": 1000}";
  return info;
}

ReclaimAnalysis reclaim_of(const TaskInput& input) {
  const TaskAnalysis analysis = obs::analysis::analyze_task(input);
  return obs::analysis::analyze_reclaim(input, analysis);
}

void expect_chain(const ReclaimAnalysis& r, const std::string& label) {
  const double tol = 1e-9 * std::max(1.0, r.realized_j);
  EXPECT_GE(r.offline_j, 0.0) << label;
  EXPECT_LE(r.offline_j, r.cont_j + tol) << label;
  EXPECT_LE(r.cont_j, r.disc_j + tol) << label;
  EXPECT_LE(r.disc_j, r.realized_j + tol) << label;
  EXPECT_GE(r.avoidable_frac, -1e-12) << label;
  EXPECT_LE(r.avoidable_frac, 1.0 + 1e-12) << label;
  // Per-server totals tile the task totals, and each server's per-bin
  // attribution tiles its own total.
  double realized = 0.0, cont = 0.0, disc = 0.0;
  for (const ServerReclaim& sr : r.servers) {
    realized += sr.realized_j;
    cont += sr.cont_j;
    disc += sr.disc_j;
    double rb = 0.0, cb = 0.0, db = 0.0;
    for (double v : sr.realized_bin_j) rb += v;
    for (double v : sr.cont_bin_j) cb += v;
    for (double v : sr.disc_bin_j) db += v;
    EXPECT_NEAR(rb, sr.realized_j, 1e-6 * std::max(1.0, sr.realized_j))
        << label << " server " << sr.server;
    EXPECT_NEAR(cb, sr.cont_j, 1e-6 * std::max(1.0, sr.cont_j))
        << label << " server " << sr.server;
    EXPECT_NEAR(db, sr.disc_j, 1e-6 * std::max(1.0, sr.disc_j))
        << label << " server " << sr.server;
  }
  EXPECT_NEAR(realized, r.realized_j, 1e-6 * std::max(1.0, r.realized_j))
      << label;
  EXPECT_NEAR(cont, r.cont_j, 1e-6 * std::max(1.0, r.cont_j)) << label;
  EXPECT_NEAR(disc, r.disc_j, 1e-6 * std::max(1.0, r.disc_j)) << label;
}

// The one-job case from test_analysis, fully by hand: 150 units realised at
// 1.5 GHz over 0.1 s (1.125 J) may stretch over its whole [0.25, 0.4]
// window at 1 GHz: 5 W * 0.15 s = 0.75 J.  No ladder => disc == cont; one
// core => the pooled fluid bound is the same YDS instance.
TEST(Reclaim, TinyTaskMatchesHandComputation) {
  const TraceBuffer buf =
      synth_buffer({{1, 0.25, 0.4, {{{0.25, 0.35, 1500.0}}}}});
  TaskInput input;
  input.info = synth_info(1);
  input.buffer = &buf;
  input.models = {{power::PowerModel(5.0, 2.0, 1000.0)}};

  const ReclaimAnalysis r = reclaim_of(input);
  EXPECT_NEAR(r.realized_j, 1.125, 1e-12);
  EXPECT_NEAR(r.cont_j, 0.75, 1e-9);
  EXPECT_NEAR(r.disc_j, 0.75, 1e-9);
  EXPECT_NEAR(r.offline_j, 0.75, 1e-9);
  EXPECT_NEAR(r.avoidable_frac, 1.0 / 3.0, 1e-9);
  ASSERT_EQ(r.servers.size(), 1u);
  expect_chain(r, "tiny");
}

// Differential oracle: on a single core the advisor's continuous re-speed
// must equal opt::yds_min_energy on the job set it reconstructs from the
// slices (work = integral of speed, window = [arrival, deadline]).  With
// one core the pooled fluid bound degenerates to the same instance too.
TEST(Reclaim, ContinuousReclaimMatchesYdsOracle) {
  const std::vector<SynthJob> jobs = {
      {1, 0.0, 1.0, {{0.0, 0.2, 900.0}, {0.5, 0.6, 400.0}}},
      {2, 0.1, 0.5, {{0.2, 0.45, 1800.0}}},
      {3, 0.6, 2.0, {{0.7, 1.1, 650.0}}},
      {4, 1.0, 1.9, {{1.1, 1.5, 1200.0}}},
  };
  const TraceBuffer buf = synth_buffer(jobs);
  TaskInput input;
  input.info = synth_info(1);
  input.buffer = &buf;
  const power::PowerModel pm(5.0, 2.0, 1000.0);
  input.models = {{pm}};

  std::vector<opt::YdsJob> oracle;
  for (const SynthJob& j : jobs) {
    double work = 0.0;
    for (const auto& s : j.slices) {
      work += (s[1] - s[0]) * s[2];
    }
    oracle.push_back({j.arrival, j.deadline, work});
  }
  const double expected = opt::yds_min_energy(oracle, pm);

  const ReclaimAnalysis r = reclaim_of(input);
  EXPECT_NEAR(r.cont_j, expected, 1e-9 * std::max(1.0, expected));
  EXPECT_NEAR(r.offline_j, expected, 1e-9 * std::max(1.0, expected));
  expect_chain(r, "oracle");
}

// Ladder pricing: a 160-unit job realised at 1.6 GHz (a ladder level) over
// [0.25, 0.35] with deadline 0.55 re-speeds continuously to 160/0.3 =
// 533.33 units/s; the 0.2 GHz ladder cannot run at that speed, and the
// convex envelope prices it on the 400-600 chord:
// (0.8 + (533.33-400)/200 * (1.8-0.8)) W * 0.3 s.
TEST(Reclaim, DiscreteLadderPricesAboveContinuous) {
  const TraceBuffer buf =
      synth_buffer({{1, 0.25, 0.55, {{0.25, 0.35, 1600.0}}}});
  TaskInput input;
  input.info = synth_info(1);
  input.info.ladder_units =
      power::DiscreteSpeedTable::uniform_ghz(0.2, 3.2, 1000.0).levels();
  input.buffer = &buf;
  input.models = {{power::PowerModel(5.0, 2.0, 1000.0)}};

  const ReclaimAnalysis r = reclaim_of(input);
  const double speed = 160.0 / 0.3;
  EXPECT_NEAR(r.realized_j, 5.0 * 1.6 * 1.6 * 0.1, 1e-12);
  EXPECT_NEAR(r.cont_j, 5.0 * (speed / 1000.0) * (speed / 1000.0) * 0.3, 1e-9);
  const double chord_w = 0.8 + (speed - 400.0) / 200.0 * (1.8 - 0.8);
  EXPECT_NEAR(r.disc_j, chord_w * 0.3, 1e-9);
  EXPECT_LT(r.cont_j, r.disc_j);
  EXPECT_LT(r.disc_j, r.realized_j);
  expect_chain(r, "ladder");
}

TEST(ReclaimChain, HoldsOnEveryGoldenClusterConfig) {
  for (const testdata::ClusterCase& c : testdata::cluster_cases()) {
    const RunReclaim rr = run_and_reclaim(c.cfg, c.sched);
    const std::string label = std::string("golden case ") + c.name;
    expect_chain(rr.reclaim, label);
    // The advisor's realised total is the run's own energy accounting,
    // exact in-process (no formatting round-trip).
    EXPECT_NEAR(rr.reclaim.realized_j, rr.result.energy,
                1e-9 * std::max(1.0, rr.result.energy))
        << label;
  }
}

// 5 base shapes x stream {off, on} x shards {1, 4}: the chain must hold
// everywhere, and all four variants of a base must agree bit-for-bit (the
// streaming and sharded paths pin bit-identical results, so the advisor,
// a pure function of the trace, must inherit that).
TEST(ReclaimChain, FuzzMatrixStreamShardsAgreeAndHold) {
  using cluster::DispatchPolicy;
  struct Base {
    const char* sched;
    exp::ExperimentConfig cfg;
  };
  std::vector<Base> bases = {
      {"GE", testdata::small_fleet(1, DispatchPolicy::kRoundRobin, 180.0, 71)},
      {"GE", testdata::small_fleet(4, DispatchPolicy::kJsq, 260.0, 72)},
      {"GE", testdata::small_fleet(2, DispatchPolicy::kRoundRobin, 150.0, 73)},
      {"BE", testdata::small_fleet(4, DispatchPolicy::kRandom, 300.0, 74)},
      {"OA", testdata::small_fleet(1, DispatchPolicy::kRoundRobin, 120.0, 75)}};
  bases[1].cfg.cores = 2;
  bases[1].cfg.power_budget = 40.0;
  bases[2].cfg.discrete_speeds = true;
  bases[4].cfg.max_jobs = 150;
  for (Base& base : bases) {
    base.cfg.duration = 1.5;
  }

  for (std::size_t b = 0; b < bases.size(); ++b) {
    std::vector<ReclaimAnalysis> variants;
    for (bool stream : {false, true}) {
      for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        exp::ExperimentConfig cfg = bases[b].cfg;
        cfg.stream = stream;
        cfg.shards = shards;
        const RunReclaim rr = run_and_reclaim(cfg, bases[b].sched);
        const std::string label = "fuzz base " + std::to_string(b) +
                                  " stream=" + std::to_string(stream) +
                                  " shards=" + std::to_string(shards);
        expect_chain(rr.reclaim, label);
        variants.push_back(rr.reclaim);
      }
    }
    for (std::size_t v = 1; v < variants.size(); ++v) {
      EXPECT_EQ(variants[v].realized_j, variants[0].realized_j) << "base " << b;
      EXPECT_EQ(variants[v].cont_j, variants[0].cont_j) << "base " << b;
      EXPECT_EQ(variants[v].disc_j, variants[0].disc_j) << "base " << b;
      EXPECT_EQ(variants[v].offline_j, variants[0].offline_j) << "base " << b;
    }
  }
}

// Cross-check against the registry's clairvoyant YDS pseudo-scheduler: at a
// load where GE completes everything (quality 1), the offline reference's
// fluid energy for the Q_GE cut is a lower bound on re-speeding the full
// realised work.
TEST(ReclaimChain, OfflineReferenceStaysBelowTheAdvisor) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.duration = 2.0;
  cfg.cores = 4;
  cfg.power_budget = 80.0;
  cfg.arrival_rate = 25.0;
  cfg.seed = 81;

  const RunReclaim online = run_and_reclaim(cfg, "GE");
  ASSERT_GE(online.result.quality, cfg.q_ge);

  const workload::Trace trace = workload::Trace::generate(
      cfg.workload_spec(), cfg.duration, cfg.max_jobs);
  const exp::RunResult yds =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("YDS"), trace);
  ASSERT_GE(yds.offline_energy_j, 0.0);
  EXPECT_LE(yds.offline_energy_j,
            online.reclaim.cont_j +
                1e-9 * std::max(1.0, online.reclaim.cont_j));
}

// A report dir carries one power model and a per-server core count; the
// reloaded advisor must price the pooled fluid bound over the whole fleet
// (cores x servers), matching the in-process value, so offline <=
// continuous still holds.
TEST(ReclaimChain, ReloadedMultiServerReportKeepsTheFleetFloor) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.duration = 2.0;
  cfg.cores = 4;
  cfg.power_budget = 80.0;
  cfg.num_servers = 2;
  cfg.dispatch = cluster::DispatchPolicy::kJsq;
  cfg.arrival_rate = 200.0;
  cfg.seed = 41;
  const exp::SchedulerSpec spec = exp::SchedulerSpec::parse("GE");
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration, cfg.max_jobs);
  obs::RunTelemetry telem;
  telem.want_trace = true;
  const exp::RunResult result = exp::run_simulation(cfg, spec, trace, nullptr, &telem);

  TaskInput input;
  input.info.scheduler = "GE";
  input.info.arrival_rate = cfg.arrival_rate;
  input.info.cores = cfg.cores;
  input.info.power_budget = exp::effective_budget(spec, cfg);
  input.info.power_model_json = cfg.power_model().describe_json();
  input.buffer = &telem.trace;
  for (const cluster::NodeSpec& node :
       cfg.cluster_node_specs(input.info.power_budget)) {
    input.models.push_back(node.core_models);
  }
  input.reported_energy_j = result.energy;

  obs::analysis::ReportWriter writer;
  writer.add_task(input);
  const std::string dir = ::testing::TempDir() + "/reclaim_reload_2srv";
  std::filesystem::remove_all(dir);
  writer.write_directory(dir);
  const ReclaimAnalysis& in_process = writer.reclaims().at(0);

  const obs::analysis::LoadedReport loaded = obs::analysis::load_report_dir(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.inputs.size(), 1u);
  const ReclaimAnalysis reloaded = reclaim_of(loaded.inputs[0]);
  ASSERT_EQ(reloaded.servers.size(), 2u);
  EXPECT_NEAR(reloaded.offline_j, in_process.offline_j,
              1e-9 * in_process.offline_j);
  EXPECT_NEAR(reloaded.cont_j, in_process.cont_j, 1e-9 * in_process.cont_j);
  expect_chain(reloaded, "reloaded 2-server report");
  EXPECT_LT(reloaded.offline_j, reloaded.cont_j);
}

// ---- the linear agreeable path ---------------------------------------------
//
// Oracle: the YDS fallback, detail::analyze_reclaim with `yds_only`.  Every
// total and every bin must agree with it within 1e-9 relative.

void expect_matches_yds_oracle(const ReclaimAnalysis& linear,
                               const ReclaimAnalysis& yds,
                               const std::string& label) {
  EXPECT_EQ(linear.realized_j, yds.realized_j) << label;
  EXPECT_NEAR(linear.cont_j, yds.cont_j, 1e-9 * std::max(1.0, yds.cont_j)) << label;
  EXPECT_NEAR(linear.disc_j, yds.disc_j, 1e-9 * std::max(1.0, yds.disc_j)) << label;
  EXPECT_NEAR(linear.offline_j, yds.offline_j, 1e-9 * std::max(1.0, yds.offline_j))
      << label;
  ASSERT_EQ(linear.servers.size(), yds.servers.size()) << label;
  for (std::size_t s = 0; s < yds.servers.size(); ++s) {
    const ServerReclaim& a = linear.servers[s];
    const ServerReclaim& e = yds.servers[s];
    const std::string where = label + " server " + std::to_string(s);
    const double cont_tol = 1e-9 * std::max(1.0, e.cont_j);
    const double disc_tol = 1e-9 * std::max(1.0, e.disc_j);
    EXPECT_NEAR(a.cont_j, e.cont_j, cont_tol) << where;
    EXPECT_NEAR(a.disc_j, e.disc_j, disc_tol) << where;
    EXPECT_EQ(a.realized_bin_j, e.realized_bin_j) << where;
    ASSERT_EQ(a.cont_bin_j.size(), e.cont_bin_j.size()) << where;
    for (std::size_t i = 0; i < e.cont_bin_j.size(); ++i) {
      EXPECT_NEAR(a.cont_bin_j[i], e.cont_bin_j[i], cont_tol) << where << " bin " << i;
      EXPECT_NEAR(a.disc_bin_j[i], e.disc_bin_j[i], disc_tol) << where << " bin " << i;
    }
  }
}

// Energy of [t0, t1] at `speed` spread over `bins` equal bins of [lo, hi].
void add_binned(std::vector<double>& bins, double lo, double hi, double t0,
                double t1, double watts) {
  const double width = (hi - lo) / static_cast<double>(bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const double a = std::max(t0, lo + width * static_cast<double>(i));
    const double b = std::min(t1, lo + width * static_cast<double>(i + 1));
    if (b > a) {
      bins[i] += watts * (b - a);
    }
  }
}

// Per-core view: the profile and opt::yds_place's real-time slices put
// the same energy in every bin, on every agreeable shape.
TEST(ReclaimAgreeable, ProfileBinsMatchYdsPlacementOnRandomInstances) {
  util::Rng rng(16);
  const power::PowerModel pm(5.0, 2.0, 1000.0);
  opt::ProfileScratch profile;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = trial < 5 ? 1 : 2 + rng.uniform_index(150);
    const std::vector<opt::YdsJob> jobs =
        testdata::agreeable_instance(rng, testdata::kAgreeableShapes[trial % 5], n);
    const std::string label = "trial " + std::to_string(trial);
    double lo = std::numeric_limits<double>::infinity(), hi = -lo;
    for (const opt::YdsJob& j : jobs) {
      lo = std::min(lo, j.release);
      hi = std::max(hi, j.deadline);
    }
    ASSERT_TRUE(opt::agreeable_profile(jobs, profile)) << label;
    std::vector<double> expected(40, 0.0), actual(40, 0.0);
    double total = 0.0;
    for (const opt::YdsSlice& slice : opt::yds_place(jobs).slices) {
      add_binned(expected, lo, hi, slice.t0, slice.t1, pm.power(slice.speed));
      total += pm.power(slice.speed) * (slice.t1 - slice.t0);
    }
    for (const opt::SpeedSegment& seg : profile.profile) {
      add_binned(actual, lo, hi, seg.t0, seg.t1, pm.power(seg.speed));
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(actual[i], expected[i], 1e-9 * std::max(1.0, total))
          << label << " bin " << i;
    }
  }
}

TEST(ReclaimAgreeable, GoldenClusterConfigsMatchTheYdsOracle) {
  for (const testdata::ClusterCase& c : testdata::cluster_cases()) {
    const RunReclaim rr = run_and_reclaim(c.cfg, c.sched);
    const std::string label = std::string("golden case ") + c.name;
    obs::analysis::detail::ReclaimPaths paths;
    const ReclaimAnalysis linear =
        obs::analysis::detail::analyze_reclaim(rr.input, rr.analysis, false, &paths);
    EXPECT_GT(paths.linear, 0u) << label;
    const ReclaimAnalysis yds =
        obs::analysis::detail::analyze_reclaim(rr.input, rr.analysis, true, nullptr);
    expect_matches_yds_oracle(linear, yds, label);
  }
}

// Nested windows on one core (and so in the pooled floor): no instance is
// agreeable, every one falls back to YDS, and the result is bit for bit
// what the YDS-only advisor produced before the linear path existed.
TEST(ReclaimAgreeable, NotAgreeableTaskKeepsTheYdsResultBitwise) {
  const TraceBuffer buf = synth_buffer({
      {1, 0.0, 1.0, {{0.0, 0.2, 900.0}, {0.5, 0.6, 400.0}}},
      {2, 0.1, 0.5, {{0.2, 0.45, 1800.0}}},
      {3, 0.6, 2.0, {{0.7, 1.1, 650.0}}},
      {4, 1.0, 1.9, {{1.1, 1.5, 1200.0}}},
  });
  TaskInput input;
  input.info = synth_info(1);
  input.info.ladder_units =
      power::DiscreteSpeedTable::uniform_ghz(0.2, 3.2, 1000.0).levels();
  input.buffer = &buf;
  input.models = {{power::PowerModel(5.0, 2.0, 1000.0)}};
  const TaskAnalysis analysis = obs::analysis::analyze_task(input);

  EXPECT_FALSE(obs::analysis::detail::takes_linear_path(input, analysis));
  obs::analysis::detail::ReclaimPaths paths;
  (void)obs::analysis::detail::analyze_reclaim(input, analysis, false, &paths);
  EXPECT_EQ(paths.instances, 2u);
  EXPECT_EQ(paths.linear, 0u);
  // The digest the YDS-only advisor gave on this task.
  const ReclaimAnalysis r = obs::analysis::analyze_reclaim(input, analysis);
  EXPECT_EQ(reclaim_digest(r), 0xfae9f2536e66667dull);
}

// The benchmark's report workload in small: 2-server jsq, discrete speeds,
// two tenants, deadline = arrival + 150 ms.  Every per-core instance and
// the pooled floor are agreeable, in process and after the report
// directory round trip.
TEST(ReclaimAgreeable, ReportShapedRunTakesTheLinearPathInProcessAndReloaded) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.num_servers = 2;
  cfg.dispatch = cluster::DispatchPolicy::kJsq;
  cfg.arrival_rate = 300.0;
  cfg.discrete_speeds = true;
  cfg.num_tenants = 2;
  cfg.tenant_qge = {0.95, 0.85};
  cfg.duration = 3.0;
  cfg.seed = 13;
  const RunReclaim rr = run_and_reclaim(cfg, "GE");
  obs::analysis::detail::ReclaimPaths paths;
  (void)obs::analysis::detail::analyze_reclaim(rr.input, rr.analysis, false, &paths);
  EXPECT_GT(paths.instances, 2u);
  EXPECT_EQ(paths.linear, paths.instances);
  EXPECT_TRUE(obs::analysis::detail::takes_linear_path(rr.input, rr.analysis));

  obs::analysis::ReportWriter writer;
  writer.add_task(rr.input);
  const std::string dir = ::testing::TempDir() + "/reclaim_linear_path";
  std::filesystem::remove_all(dir);
  writer.write_directory(dir);
  const obs::analysis::LoadedReport loaded = obs::analysis::load_report_dir(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.inputs.size(), 1u);
  const TaskAnalysis reloaded = obs::analysis::analyze_task(loaded.inputs[0]);
  EXPECT_TRUE(obs::analysis::detail::takes_linear_path(loaded.inputs[0], reloaded));
}

}  // namespace
}  // namespace ge
