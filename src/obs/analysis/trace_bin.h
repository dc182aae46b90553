// trace.bin: the binary trace a report directory carries (ge-report-v2).
//
// A report dir embeds the trace it was derived from, so ge_report --report
// and ge_dashboard can re-analyse it offline.  JSONL text costs more to
// render and to parse back than the analysis itself, so the report dir
// keeps the events as fixed-size binary records instead; JSONL and Chrome
// stay the --trace export formats.  Every value is stored exactly (no
// %.12g rounding), so a loaded report analyses the same events the run
// recorded.
//
// Layout, all integers and doubles little-endian, written field by field
// (no struct padding reaches the file, so bytes are deterministic):
//
//   header   8-byte magic "GETRACE\0", u32 version (kTraceBinVersion),
//            u64 task count
//   per task u64 task index, u32 length + bytes of the scheduler name,
//            f64 arrival rate, u64 cores, f64 power budget (W),
//            f64 power-model a, f64 beta, f64 units_per_ghz,
//            u64 ladder length + that many f64 levels,
//            u64 event count + that many event records
//   record   u8 type, f64 t, f64 t2, i32 core, i64 job, i32 mode,
//            f64 a, f64 b, f64 c   (kTraceBinRecordBytes = 57 bytes)
//
// The file ends right after the last task's records.  tools/check_telemetry.py
// --report validates this framing independently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/analysis/trace_reader.h"
#include "obs/trace.h"
#include "power/power_model.h"

namespace ge::obs::analysis {

inline constexpr char kTraceBinMagic[8] = {'G', 'E', 'T', 'R', 'A', 'C', 'E', '\0'};
inline constexpr std::uint32_t kTraceBinVersion = 1;
inline constexpr std::size_t kTraceBinRecordBytes = 57;

// One task to write: the run's description, its power model (stored as
// a/beta/units_per_ghz) and its events.
struct TraceBinTask {
  const TraceTaskInfo* info = nullptr;
  power::PowerModel model;
  const std::vector<TraceEvent>* events = nullptr;
};

void write_trace_bin(std::ostream& out, const std::vector<TraceBinTask>& tasks);

// Reads a trace.bin file into `tasks` (model and info.power_model_json
// rebuilt from the stored parameters).  Returns "" on success, else a
// one-line reason -- a missing, truncated, wrong-magic or wrong-version
// file, or a field no run can produce -- and leaves `tasks` empty.  Events
// are decoded in bounded chunks straight into each task's buffer; the
// whole file is never held in memory.
std::string read_trace_bin(const std::string& path, std::vector<ParsedTask>& tasks);

}  // namespace ge::obs::analysis
