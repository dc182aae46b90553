// Quality-OPT: best partial processing under a speed cap (Sec. III-E).
//
// When a core's power cap cannot sustain the speed its queue requires, the
// paper applies the Quality-OPT step of Tians scheduling (He, Elnikety,
// Sun -- ICDCS'11): choose how much of each job to process so the total
// quality is maximised subject to the core's processing capacity.  For an
// EDF queue with all jobs released at `now` and speed cap `s`, feasibility
// of extra allocations x_j is exactly the nested prefix constraints
//
//     sum_{j<=k} x_j <= s * (d_k - now)        for every k,
//     0 <= x_j <= w_j                          (w_j = remaining target work).
//
// Maximising the separable concave objective sum_j f(e_j + x_j) over this
// polymatroid is solved exactly by marginal water-filling combined with the
// classic tight-prefix decomposition: solve unconstrained, find the most
// violated prefix, pin it tight, recurse left and right.
#pragma once

#include <span>
#include <vector>

namespace ge::quality {
class QualityFunction;
}

namespace ge::opt {

struct AllocJob {
  double executed = 0.0;   // e_j: units already processed
  double max_extra = 0.0;  // w_j: most additional units worth processing
  double deadline = 0.0;   // absolute seconds
};

// A breakpoint of g(L) = sum_j clamp(L - e_j, 0, w_j): g's slope changes
// by `step` (+1 at e_j, -1 at e_j + w_j) at level `level`.
struct LevelBreakpoint {
  double level = 0.0;
  double step = 0.0;
};

// Reusable working memory for maximize_quality: a scheduler trims once per
// over-capped core per round, so routing the calls through one scratch
// keeps the prefix capacities, the water-fill breakpoints and the result
// off the allocator.  The result of the last call lives in `extra`.
struct QualityOptScratch {
  std::vector<double> capacity;              // prefix capacity s * (d_k - now)
  std::vector<LevelBreakpoint> breakpoints;  // water-fill level, 2 per job
  std::vector<double> extra;                 // x_j, same order as the jobs
};

// Writes the optimal extra allocation x_j (same order as `jobs`) into
// scratch.extra.  `jobs` must be EDF-sorted.  Deadlines at or before `now`
// force x_j contributions of the corresponding prefix towards zero.
// speed_cap <= 0 yields all zeros.
void maximize_quality(double now, std::span<const AllocJob> jobs, double speed_cap,
                      const quality::QualityFunction& f, QualityOptScratch& scratch);

}  // namespace ge::opt
