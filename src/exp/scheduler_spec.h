// Named scheduler configurations: every algorithm the experiments evaluate,
// resolvable from a string for the benchmark command lines.
//
// A spec is a pointer into the scheduler plugin registry plus the parsed
// parameters.  The grammar is "NAME" or "NAME[p1,p2,...]" (case-insensitive
// names/aliases, numeric parameters), e.g. "GE", "ge-nc", "QOA[0.5]",
// "BE-P[0.8]".  The set of valid names is whatever is registered -- see
// exp/scheduler_registry.h and docs/SCHEDULERS.md.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheduler.h"
#include "power/discrete_speed.h"

namespace ge::exp {

struct ExperimentConfig;
struct SchedulerPlugin;

struct SchedulerSpec {
  // The registered algorithm; nullptr means the default "GE" plugin
  // (resolved lazily so `SchedulerSpec{}` keeps working as plain GE).
  const SchedulerPlugin* plugin = nullptr;
  // Bracket parameters exactly as parsed ("QOA[0.5]" -> {0.5}); plugins
  // normalise them into dedicated fields via apply_params.
  std::vector<double> params;
  // BE-P: multiplier on the configured power budget.
  double budget_scale = 1.0;
  // BE-S: per-core speed cap in GHz.
  double speed_cap_ghz = std::numeric_limits<double>::infinity();

  // The plugin, with nullptr resolved to the registered "GE" entry.
  const SchedulerPlugin& resolved() const;

  // True when this spec resolves to the plugin with that canonical name
  // (exact match, e.g. is("BE-P")).
  bool is(std::string_view canonical_name) const;

  // Canonical spelling; round-trips through parse() for every registered
  // plugin (pinned by SchedulerSpecTest.ParseRoundTripEveryPlugin).
  std::string display_name() const;

  // Parses "NAME" or "NAME[p1,...]" against the registry; nullopt, with a
  // one-line reason in `error`, on an unknown scheduler name, malformed
  // brackets, or a parameter-count / domain violation.
  static std::optional<SchedulerSpec> try_parse(const std::string& name,
                                                std::string& error);

  // try_parse for names the program itself spells; a bad one is a checked
  // error (abort).
  static SchedulerSpec parse(const std::string& name);
};

// Parses a comma-separated list of specs ("GE,QOA[0.5],BE-P[0.8]").  Commas
// inside brackets belong to the spec, so "GE[1,2],BE" is two entries.
// nullopt, with a one-line reason in `error`, when the list is empty or any
// entry fails try_parse.
std::optional<std::vector<SchedulerSpec>> parse_scheduler_list(
    const std::string& text, std::string& error);

// Effective server power budget for a spec (BE-P scales it).
double effective_budget(const SchedulerSpec& spec, const ExperimentConfig& cfg);

// Builds the scheduler through the spec's plugin factory.  `table` may be
// nullptr (continuous DVFS) and must outlive the scheduler when provided.
std::unique_ptr<sched::Scheduler> make_scheduler(const SchedulerSpec& spec,
                                                 const sched::SchedulerEnv& env,
                                                 const ExperimentConfig& cfg,
                                                 const power::DiscreteSpeedTable* table);

}  // namespace ge::exp
