// Seeded agreeable job sets for the taut-string tests (test_yds,
// test_reclaim): sorted by release, the deadlines never decrease.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "opt/yds.h"
#include "util/rng.h"

namespace ge::testdata {

enum class AgreeableShape { kPlain, kSharedReleases, kSharedDeadlines, kIdleGaps, kBursts };

constexpr AgreeableShape kAgreeableShapes[] = {
    AgreeableShape::kPlain, AgreeableShape::kSharedReleases,
    AgreeableShape::kSharedDeadlines, AgreeableShape::kIdleGaps,
    AgreeableShape::kBursts};

// One instance of `n` jobs.  Windows are drawn per job, then the sorted
// releases are paired with the sorted deadlines: the k-th smallest deadline
// exceeds the k-th smallest release, so every window stays non-empty.
// Every seventh job carries no work; the result is shuffled.
inline std::vector<opt::YdsJob> agreeable_instance(util::Rng& rng,
                                                   AgreeableShape shape,
                                                   std::size_t n) {
  std::vector<double> releases, deadlines, works;
  double cluster = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double r = rng.uniform(0.0, 0.02 * static_cast<double>(n));
    double window = rng.uniform(0.05, 0.3);
    double work = rng.uniform(10.0, 400.0);
    switch (shape) {
      case AgreeableShape::kPlain:
        break;
      case AgreeableShape::kSharedReleases:
        r = 0.1 * std::floor(r / 0.1);
        break;
      case AgreeableShape::kSharedDeadlines:
        window = 0.25 * std::ceil((r + window) / 0.25) - r;
        break;
      case AgreeableShape::kIdleGaps:
        // Clusters of eight jobs, each 2 s after the last: idle between.
        if (i % 8 == 0) {
          cluster += 2.0;
        }
        r = cluster + rng.uniform(0.0, 0.1);
        break;
      case AgreeableShape::kBursts:
        // Four in five jobs land within 1 ms of a half-second mark, 20x
        // heavier than the rest.
        if (i % 5 != 0) {
          r = 0.5 * std::floor(r / 0.5) + rng.uniform(0.0, 1e-3);
          work *= 20.0;
        }
        break;
    }
    releases.push_back(r);
    deadlines.push_back(r + window);
    works.push_back(i % 7 == 6 ? 0.0 : work);
  }
  std::sort(releases.begin(), releases.end());
  std::sort(deadlines.begin(), deadlines.end());
  std::vector<opt::YdsJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back({releases[i], deadlines[i], works[i]});
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(jobs[i - 1], jobs[rng.uniform_index(i)]);
  }
  return jobs;
}

}  // namespace ge::testdata
