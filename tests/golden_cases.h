// The eight cluster configurations the golden store pins (test_goldens)
// and the differentials that share them: serial vs sharded timelines
// (test_shard_des) and the reclaim advisor's bound chain and YDS oracle
// (test_reclaim); plus the reclaim run and digest both use.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/reclaim.h"
#include "obs/telemetry.h"
#include "power/discrete_speed.h"
#include "workload/trace.h"

namespace ge::testdata {

// `servers` small (4-core, 80 W) paper servers over a 2 s horizon.
inline exp::ExperimentConfig small_fleet(std::size_t servers,
                                         cluster::DispatchPolicy dispatch,
                                         double rate, std::uint64_t seed) {
  exp::ExperimentConfig c = exp::ExperimentConfig::paper_defaults();
  c.duration = 2.0;
  c.cores = 4;
  c.power_budget = 80.0;
  c.num_servers = servers;
  c.dispatch = dispatch;
  c.arrival_rate = rate;
  c.seed = seed;
  return c;
}

// Dispatch policies, heterogeneous fleets, discrete speeds and a mid-run
// core failure.
struct ClusterCase {
  const char* name;
  const char* sched;
  exp::ExperimentConfig cfg;
};

inline std::vector<ClusterCase> cluster_cases() {
  using cluster::DispatchPolicy;
  std::vector<ClusterCase> cases = {
      {"rr2", "GE", small_fleet(2, DispatchPolicy::kRoundRobin, 200.0, 31)},
      {"jsq4", "GE", small_fleet(4, DispatchPolicy::kJsq, 320.0, 32)},
      {"rr8-2core", "GE", small_fleet(8, DispatchPolicy::kRoundRobin, 400.0, 33)},
      {"random4-BE", "BE", small_fleet(4, DispatchPolicy::kRandom, 250.0, 34)},
      {"least-energy4-discrete", "GE",
       small_fleet(4, DispatchPolicy::kLeastEnergy, 280.0, 35)},
      {"rr2-OA", "OA", small_fleet(2, DispatchPolicy::kRoundRobin, 150.0, 36)},
      {"jsq8-hetero", "GE", small_fleet(8, DispatchPolicy::kJsq, 350.0, 37)},
      {"rr4-failure", "GE", small_fleet(4, DispatchPolicy::kRoundRobin, 300.0, 38)},
  };
  cases[2].cfg.cores = 2;
  cases[2].cfg.power_budget = 40.0;
  cases[4].cfg.discrete_speeds = true;
  cases[6].cfg.server_cores = {4, 2, 4, 2, 4, 2, 4, 2};
  cases[6].cfg.server_power_scale = {1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2};
  cases[7].cfg.failure_time = 1.0;
  cases[7].cfg.failure_cores = 2;
  return cases;
}

// Runs `sched` on cfg with trace capture and feeds the realised trace to
// the advisor, exactly as the engine's --report path does.
struct RunReclaim {
  exp::RunResult result;
  obs::analysis::ReclaimAnalysis reclaim;
  // The advisor's inputs, kept for the oracle and path checks.
  std::unique_ptr<obs::RunTelemetry> telem;
  obs::analysis::TaskInput input;
  obs::analysis::TaskAnalysis analysis;
};

inline RunReclaim run_and_reclaim(const exp::ExperimentConfig& cfg,
                                  const std::string& sched) {
  const exp::SchedulerSpec spec = exp::SchedulerSpec::parse(sched);
  RunReclaim out;
  out.telem = std::make_unique<obs::RunTelemetry>();
  obs::RunTelemetry& telem = *out.telem;
  telem.want_trace = true;

  if (cfg.stream) {
    out.result = exp::run_simulation_stream(cfg, spec, nullptr, &telem);
  } else {
    const workload::Trace trace = workload::Trace::generate(
        cfg.workload_spec(), cfg.duration, cfg.max_jobs);
    out.result = exp::run_simulation(cfg, spec, trace, nullptr, &telem);
  }

  obs::analysis::TaskInput& input = out.input;
  input.info.task = 0;
  input.info.scheduler = sched;
  input.info.arrival_rate = cfg.arrival_rate;
  input.info.cores = cfg.cores;
  input.info.power_budget = exp::effective_budget(spec, cfg);
  input.info.power_model_json = cfg.power_model().describe_json();
  if (cfg.discrete_speeds) {
    input.info.ladder_units = power::DiscreteSpeedTable::uniform_ghz(
                                  cfg.discrete_step_ghz, cfg.discrete_max_ghz,
                                  cfg.power_model().units_per_ghz())
                                  .levels();
  }
  input.buffer = &telem.trace;
  for (const cluster::NodeSpec& node :
       cfg.cluster_node_specs(input.info.power_budget)) {
    input.models.push_back(node.core_models);
  }
  input.reported_energy_j = out.result.energy;

  out.analysis = obs::analysis::analyze_task(input);
  out.reclaim = obs::analysis::analyze_reclaim(input, out.analysis);
  return out;
}

// FNV-1a over the bit patterns of every reclaim total and bin.
inline std::uint64_t reclaim_digest(const obs::analysis::ReclaimAnalysis& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 64; b += 8) {
      h = (h ^ ((bits >> b) & 0xffu)) * 1099511628211ull;
    }
  };
  for (double v : {r.realized_j, r.cont_j, r.disc_j, r.offline_j, r.avoidable_frac}) {
    mix(v);
  }
  for (const obs::analysis::ServerReclaim& sr : r.servers) {
    for (double v : {sr.realized_j, sr.cont_j, sr.disc_j}) {
      mix(v);
    }
    for (const auto* bins : {&sr.realized_bin_j, &sr.cont_bin_j, &sr.disc_bin_j}) {
      for (double v : *bins) {
        mix(v);
      }
    }
  }
  return h;
}

}  // namespace ge::testdata
