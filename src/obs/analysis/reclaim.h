// Reclaim advisor: how much of a run's realised energy was avoidable?
//
// Post-hoc clairvoyant re-speed of a finished trace, after Aupy et al.,
// "Reclaiming the energy of a schedule".  The advisor replays the realised
// exec slices and asks: had a clairvoyant scheduler known every job's
// executed work up front, what is the minimum energy that completes the
// *same work* on the *same cores* within the *same windows*?  Three nested
// bounds come out, ordered by how much the re-speeder is allowed to cheat:
//
//   offline_j  <=  cont_j  <=  disc_j  <=  realized_j
//
//   * realized_j -- the energy the run actually integrated over its exec
//     slices (bit-identical to TaskAnalysis residency totals);
//   * disc_j -- per-core re-speed priced through the convex envelope of
//     the run's DVFS ladder (only distinct from cont_j when the run used
//     discrete speeds; the envelope of the realised ladder upper-bounds the
//     best achievable discrete schedule while staying provably below the
//     realised energy, because realised speeds are ladder levels and the
//     YDS profile simultaneously minimises every convex power curve -- the
//     envelope included, so pricing the one profile through it is the
//     envelope's own optimum, whichever path computed the profile);
//   * cont_j -- per-core continuous re-speed: for each core, the
//     minimum-energy preemptive schedule of its realised per-job work
//     within [release, max(deadline, last realised slice end)];
//   * offline_j -- fluid fleet-wide lower bound: all realised work pooled
//     onto one speed-unbounded machine with the m-core fluid power curve
//     a_min * m^(1-beta) * (S/u)^beta (Jensen: running m cores at the same
//     total speed never beats this curve).
//
// Each re-speed (one per core, plus the pooled floor) is a YDS speed
// profile, computed one of two ways:
//   * agreeable instances -- sorted by release, the deadlines never
//     decrease, as with the paper's deadline = arrival + 150 ms -- take
//     opt::agreeable_profile, the taut string between the cumulative
//     release and deadline curves, in one linear pass;
//   * any other instance (e.g. random deadline windows) takes the
//     critical-interval kernel in opt/yds.h: per core opt::yds_place, whose
//     real-time slices are priced and spread like the profile's segments,
//     and for the pooled floor opt::yds_min_energy, the same kernel's
//     blocks.
// The kernel is also the test oracle: on agreeable instances both paths
// agree within 1e-9 relative, totals and bins.
//
// Everything is a pure function of (TaskInput, TaskAnalysis): byte-stable
// outputs for a given trace, no clocks, no RNG.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/analysis/analysis.h"

namespace ge::obs::analysis {

// Per-server reclaim totals plus per-timeline-bin attribution on the
// TaskAnalysis bin grid (bin i covers (bin_end[i] - bin_width, bin_end[i]]).
struct ServerReclaim {
  std::int32_t server = 0;
  double realized_j = 0.0;
  double cont_j = 0.0;
  double disc_j = 0.0;
  std::vector<double> realized_bin_j;  // size = TaskAnalysis::bin_end.size()
  std::vector<double> cont_bin_j;
  std::vector<double> disc_bin_j;
};

struct ReclaimAnalysis {
  double realized_j = 0.0;  // sum of exec-slice energy, server-major order
  double cont_j = 0.0;      // sum of per-core continuous YDS re-speeds
  double disc_j = 0.0;      // ladder-envelope variant; == cont_j when the
                            // trace carried no ladder (continuous speeds)
  double offline_j = 0.0;   // pooled fluid fleet-wide lower bound
  // (realized - cont) / realized; 0 when the run spent no energy.  The
  // dashboard's "X% clairvoyantly avoidable" headline.
  double avoidable_frac = 0.0;
  std::vector<ServerReclaim> servers;  // ascending server id, one per server
};

namespace detail {

// How many of a task's instances (one per core, plus the pooled floor) the
// advisor priced, and how many of them took the linear agreeable path.
struct ReclaimPaths {
  std::size_t instances = 0;
  std::size_t linear = 0;
};

// analyze_reclaim with the path choice open to tests: `yds_only` prices
// every instance with the YDS fallback (the oracle the linear path is
// checked against); `paths`, if non-null, counts the paths taken.
ReclaimAnalysis analyze_reclaim(const TaskInput& input,
                                const TaskAnalysis& analysis, bool yds_only,
                                ReclaimPaths* paths);

// True when every per-core instance and the pooled floor of the task take
// the linear agreeable path.
bool takes_linear_path(const TaskInput& input, const TaskAnalysis& analysis);

}  // namespace detail

// Runs the advisor over one task.  `analysis` must come from analyze_task()
// on the same input (the bin grid and job spans are reused).
ReclaimAnalysis analyze_reclaim(const TaskInput& input,
                                const TaskAnalysis& analysis);

}  // namespace ge::obs::analysis
