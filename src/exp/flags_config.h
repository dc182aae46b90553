// Command-line binding for ExperimentConfig: every field of the experiment
// configuration is overridable with a --flag, shared by the sweep tool and
// available to downstream binaries.
#pragma once

#include "exp/config.h"
#include "exp/experiment_engine.h"
#include "util/flags.h"

namespace ge::exp {

// Applies recognised flags onto `cfg` (unrecognised flags are ignored):
//   --rate R --seconds S --seed N --cores M --budget W --qge Q
//   --quality-family exponential|linear|powerlaw --quality-c C
//   --alpha A --xmin X --xmax X
//   --deadline MS --deadline-max MS
//   --burst RATIO --burst-fraction F --burst-dwell S
//   --quantum S --counter N --critical-load R --load-window S
//   --monitor-window N --discrete [--step-ghz G --max-ghz G]
//   --static-power W --failure-time S --failure-cores K --hetero-spread X
// plus the cluster-shape flags below.
ExperimentConfig apply_flags(ExperimentConfig cfg, const util::Flags& flags);

// Applies the cluster-shape flags alone (the figure binaries' subset):
//   --servers N --dispatch single|random|rr|jsq|least-energy
//   --server-cores C,C,... --server-power-scale X,... --server-max-ghz G,...
//   --shards N
ExperimentConfig apply_cluster_flags(ExperimentConfig cfg, const util::Flags& flags);

// Parses the engine execution flags shared by every figure binary and
// ge_sweep (previously duplicated in each):
//   --jobs N --progress[=bool]
//   --trace F --trace-format jsonl|chrome --metrics F
//   --report DIR   derived-analysis report directory (docs/OBSERVABILITY.md)
//   --watchdog     online invariant watchdog (default: on when --report is)
//   --profile      wall-clock kernel self-profiling spans (nondeterministic
//                  prof.* metrics; default off, keeping metrics files
//                  byte-identical for any --jobs)
ExecutionOptions parse_execution_options(const util::Flags& flags);

}  // namespace ge::exp
