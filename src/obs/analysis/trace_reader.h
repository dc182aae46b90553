// Readers for the committed telemetry formats, so analyses can run offline
// from files as well as in-process from live buffers.
//
//   * read_trace_jsonl(): parses a --trace file back into per-task
//     (TraceTaskInfo, TraceBuffer) pairs -- the exact inverse of
//     TraceWriter's JSONL rendering (schema: docs/OBSERVABILITY.md).
//     Unknown "ev" kinds are an error (a returned reason), so schema drift
//     between writer and reader fails loudly instead of silently skewing
//     reports.
//   * read_metrics_json(): parses a goodenough-metrics-v2 --metrics file
//     into a flat name -> scalar view (counters and gauges; histograms
//     expose count and sum as "<name>.count" / "<name>.sum").  Any other
//     schema, v1 included, is a checked error.
//
// Numbers in a --trace file round-trip through the writer's %.12g
// formatting, which costs up to ~1e-12 relative per value: energy
// cross-checks from such a file therefore use a looser tolerance than
// in-process ones (see docs/OBSERVABILITY.md).  Report directories keep
// their trace exactly, as trace.bin (trace_bin.h), so the caveat does not
// apply to them.
//
// The parser is a ~hundred-line recursive-descent JSON subset (objects,
// arrays, strings, numbers, bools, null; no \uXXXX escapes -- the writers
// never emit them), kept here so the toolchain needs no JSON dependency.
#pragma once

#include <istream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "power/power_model.h"

namespace ge::obs::analysis {

// One task of a JSONL trace file.
struct ParsedTask {
  TraceTaskInfo info;
  power::PowerModel model;  // rebuilt from the meta record's power_model
  TraceBuffer buffer;
};

// Parses a whole JSONL trace stream into `tasks`, returning "" on success
// or, on malformed input, a one-line reason naming the line ("line 3: JSON:
// ...") with `tasks` left empty.
std::string read_trace_jsonl(std::istream& in, std::vector<ParsedTask>& tasks);

// "" when every index an event of `task` carries is one a run described by
// task.info can produce, else a one-line reason naming the first that is
// not: a negative job id on a job's event, a negative server on a dispatch
// or lifecycle event, an execution or assignment core outside
// [0, info.cores), or an arrival tenant that is not an index.  The
// analyses index their tables by these fields, so both trace loaders
// (load_report_dir, load_trace_file) run this before any analysis sees the
// events; read_trace_bin itself only checks the framing.
std::string check_event_indices(const ParsedTask& task);

// The model a PowerModel::describe_json() string describes (checked error
// on anything else); TraceTaskInfo carries the model only in that form.
power::PowerModel parse_power_model_json(const std::string& json);

// Flat scalar view of a metrics JSON file.
struct MetricsValues {
  std::vector<std::pair<std::string, double>> values;  // file order

  // Value of `name`, or `fallback` if absent.
  double get(const std::string& name, double fallback) const;
  bool has(const std::string& name) const;
};

// Parses a metrics JSON stream (checked error on malformed input).
MetricsValues read_metrics_json(std::istream& in);

// The same parse into `out`, returning "" on success or a one-line reason
// with `out` left empty.
std::string read_metrics_json(std::istream& in, MetricsValues& out);

}  // namespace ge::obs::analysis
