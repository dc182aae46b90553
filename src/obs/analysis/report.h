// Deterministic run reports: Markdown for humans, CSV for tooling.
//
// A ReportWriter accumulates analyzed tasks (analysis.h) and renders them as
// a report directory:
//
//   report.md      -- per-task summary: outcome split, lifecycle phase
//                     table, aggregated speed-residency table, the
//                     residency-vs-reported energy identity verdict,
//                     per-server tallies and recorded watchdog violations
//   summary.csv    -- one row per task (the report.md numbers, raw)
//   jobs.csv       -- one row per job: full lifecycle span + energy
//   residency.csv  -- one row per (task, server, core, speed bin)
//   timeline.csv   -- one row per (task, server, time bin)
//   tenants.csv    -- one row per (task, tenant); header-only for
//                     single-tenant runs
//   reclaim.csv    -- one row per (task, server, time bin): realised vs
//                     clairvoyantly re-sped energy (reclaim advisor)
//   trace.bin      -- the analysed trace itself as exact binary records
//                     (trace_bin.h), so a report dir is self-contained
//                     input for ge_report/ge_dashboard
//
// Output bytes are a pure function of the added (input, options) sequence:
// no timestamps, no locale, %.12g number formatting in the text files,
// field-by-field little-endian records in trace.bin.  Reports therefore
// inherit the engine's determinism contract -- the same plan produces
// byte-identical report directories for any --jobs value, which CI enforces
// with a directory diff.  Schema: ge-report-v2, described field-by-field in
// docs/OBSERVABILITY.md ("Analysis & reports").
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/analysis/analysis.h"
#include "obs/analysis/reclaim.h"

namespace ge::obs::analysis {

struct ReportOptions : AnalysisOptions {
  // Verdict threshold for the energy identity in report.md.  In-process
  // analyses see the exact accrual terms (1e-9 holds); analyses of a --trace
  // JSONL file see every term round-tripped through %.12g, so ge_report
  // relaxes this (a report dir's trace.bin is exact).
  double energy_rel_tol = 1e-9;
};

class ReportWriter {
 public:
  explicit ReportWriter(ReportOptions options = {});

  // Analyzes one task (including the reclaim advisor) and appends it; tasks
  // render in add order.  The writer keeps a view of the task's events for
  // trace.bin, not a copy: `*input.buffer` must outlive every write_* call
  // (write_directory included) and must not change after add_task.
  void add_task(const TaskInput& input);

  const ReportOptions& options() const noexcept { return options_; }
  // The added inputs, in add order (their buffers are the caller's).
  const std::vector<TaskInput>& inputs() const noexcept { return inputs_; }
  // One entry per added task, parallel to inputs().
  const std::vector<TaskAnalysis>& tasks() const noexcept { return tasks_; }
  // One entry per added task, parallel to tasks().
  const std::vector<ReclaimAnalysis>& reclaims() const noexcept {
    return reclaims_;
  }

  void write_markdown(std::ostream& out) const;
  void write_summary_csv(std::ostream& out) const;
  void write_jobs_csv(std::ostream& out) const;
  void write_residency_csv(std::ostream& out) const;
  void write_timeline_csv(std::ostream& out) const;
  void write_tenants_csv(std::ostream& out) const;
  void write_reclaim_csv(std::ostream& out) const;
  void write_trace_bin(std::ostream& out) const;

  // Creates `dir` (and parents) and writes report.md, the six CSVs, and
  // trace.bin.  Report files an earlier schema wrote there (a v1
  // trace.jsonl) are removed; files the report never owned are left alone.
  void write_directory(const std::string& dir) const;

 private:
  ReportOptions options_;
  std::vector<TaskInput> inputs_;
  std::vector<TaskAnalysis> tasks_;
  std::vector<ReclaimAnalysis> reclaims_;
};

}  // namespace ge::obs::analysis
