// Result reporting helpers shared by examples and downstream tooling:
// a human-readable summary and a machine-readable JSON record per run.
#pragma once

#include <string>

#include "exp/runner.h"

namespace ge::exp {

// Multi-line human-readable summary (the quickstart format).
std::string summarize(const RunResult& result, const ExperimentConfig& cfg);

// One flat JSON object with every RunResult field, doubles in shortest
// round-trip form (equal records <=> bitwise-equal results).  Stable key
// names; no external JSON dependency needed for this fixed schema.
std::string to_json(const RunResult& result);

}  // namespace ge::exp
