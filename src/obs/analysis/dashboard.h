// Self-contained HTML fleet dashboard (schema: ge-dashboard-v1).
//
// write_dashboard() renders one or more analysed tasks as a single static
// HTML page with zero external fetches: styles are inline, every chart is
// inline SVG, and there are no scripts, so the file opens identically from
// a local path, a CI artifact store, or an air-gapped machine.  Per task it
// draws:
//
//   * a summary strip with the reclaim-advisor headline ("X% of the
//     realised energy was clairvoyantly avoidable");
//   * a per-core Gantt of exec slices coloured by speed (above a
//     deterministic slice cap the panel falls back to per-bin busy blocks,
//     and says so);
//   * speed-ladder residency bars;
//   * queue / quality / power / SLO-burn timelines;
//   * per-server lifecycle bands (ONLINE / DRAINING / OFF / WAKING);
//   * a cluster energy/load heatmap (servers x time bins);
//   * per-tenant panels;
//   * the reclaim advisor's per-server breakdown.
//
// Output bytes are a pure function of the inputs (no timestamps, no RNG,
// fixed-precision coordinates), so dashboards slot into the cmp-based
// determinism CI exactly like the report CSVs.  tools/check_dashboard.py
// validates the panel ids, well-formedness, and the no-external-URL pledge.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/analysis/report.h"
#include "obs/analysis/trace_reader.h"

namespace ge::obs::analysis {

struct DashboardOptions : ReportOptions {
  // Above this many exec slices a task's Gantt panel switches to binned
  // busy blocks (browsers choke on 10^6 SVG rects long before we do).
  std::size_t gantt_slice_cap = 4000;
};

// Renders the dashboard for the given tasks (analyze_task + analyze_reclaim
// run internally, so callers hand over the same TaskInputs a ReportWriter
// would get).
void write_dashboard(std::ostream& out, const std::vector<TaskInput>& inputs,
                     const DashboardOptions& options = {});

// Renders the same bytes from the analyses `writer` already holds, so no task
// is analysed twice.  `options` must bin as the writer's own options did
// (speed_bin_ghz, timeline_bins; checked); the writer's inputs' buffers must
// still be alive.
void write_dashboard(std::ostream& out, const ReportWriter& writer,
                     const DashboardOptions& options = {});

// A ge-report-v2 directory loaded back into analyzable inputs (via the
// trace.bin the report writer embeds; events come back exactly as the run
// recorded them).  `error` is a one-line reason when the directory is
// missing, declares a different schema version, or lacks a well-formed
// trace.bin (missing, truncated, bad magic or version), or an event names
// an index its task cannot have (check_event_indices) -- callers print it
// and exit non-zero instead of emitting an empty report.
struct LoadedReport {
  std::string error;
  std::vector<ParsedTask> parsed;  // owns the buffers
  std::vector<TaskInput> inputs;   // buffer/model views into `parsed`

  bool ok() const noexcept { return error.empty(); }
};

LoadedReport load_report_dir(const std::string& dir);

// A --trace JSONL file loaded the same way (per-core models are not in the
// file, so each task analyses with its meta record's model).  `error` is a
// one-line reason when the file cannot be opened, a line is not a
// well-formed trace record (malformed JSON, a missing field, an unknown
// event kind), or an event names an index its task cannot have
// (check_event_indices).
LoadedReport load_trace_file(const std::string& path);

}  // namespace ge::obs::analysis
