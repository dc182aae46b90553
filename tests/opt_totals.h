// Totals the optimiser tests check plans and allocations against (test_
// energy_opt, test_quality_opt, test_differential, test_properties); the
// schedulers themselves never need them.
#pragma once

#include <cstddef>
#include <span>

#include "opt/plan.h"
#include "opt/quality_opt.h"
#include "quality/quality_function.h"
#include "util/check.h"

namespace ge::testdata {

// Total quality sum f(e_j + x_j) of a Quality-OPT allocation.
inline double allocation_quality(std::span<const opt::AllocJob> jobs,
                                 std::span<const double> extra,
                                 const quality::QualityFunction& f) {
  GE_CHECK(jobs.size() == extra.size(), "jobs/extra size mismatch");
  double total = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    total += f.value(jobs[j].executed + extra[j]);
  }
  return total;
}

// Total work across a plan's segments.
inline double plan_units(const opt::ExecutionPlan& plan) {
  double units = 0.0;
  for (const opt::PlanSegment& seg : plan.segments) {
    units += seg.units;
  }
  return units;
}

}  // namespace ge::testdata
