// Structured simulation tracing.
//
// Instrumented components record TraceEvents -- small fixed-size records of
// what the scheduler and the cores decided at a simulated instant -- into a
// per-run TraceBuffer (an in-memory vector; the simulator is single-threaded
// and runs execute in parallel, so events are serialised to disk only after
// the whole plan finishes, in task order).  Two writers render a buffer:
//
//   * JSONL  -- one self-describing JSON object per line, the analysis
//     format (schema: docs/OBSERVABILITY.md; validated by
//     tools/check_telemetry.py).
//   * Chrome trace_event JSON -- loadable in Perfetto / about:tracing; each
//     run becomes a process, each core a thread, execution slices become
//     duration events and quality/speed become counter tracks.
//
// The numeric payload fields a/b/c are typed per event kind; the per-kind
// meaning is fixed here and documented field-by-field in
// docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace ge::obs {

enum class TraceEventType : std::uint8_t {
  kArrival,       // job arrived: a=demand (units), b=deadline (s),
                  // c=tenant id (0 on single-tenant runs)
  kRound,         // scheduling round: mode, a=waiting jobs, b=estimated rate
                  // (req/s), c=round index
  kModeSwitch,    // AES<->BQ transition: mode = new mode, a=monitored quality
  kCut,           // per-core AES cut: core, a=open jobs, b=cut level (units),
                  // c=sum of targets (units)
  kCap,           // per-core power cap: core, a=cap (W)
  kExec,          // executed slice: core, job, t..t2, a=speed (units/s)
  kCompletion,    // job settled at/above target: core, job, a=executed,
                  // b=demand, c=monitored quality after settlement
  kDeadlineMiss,  // job settled below target by its deadline: core, job,
                  // a=executed, b=demand, c=monitored quality
  kCoreOffline,   // fault injection: core went offline
  kDispatch,      // cluster dispatch decision: job, core=server index,
                  // a=jobs already in flight on that server (multi-server
                  // runs only; see docs/CLUSTER.md)
  kAssign,        // scheduling round pinned a waiting job to a core: job,
                  // core (never migrates afterwards)
  kViolation,     // invariant watchdog: a conservation identity failed:
                  // mode=check id (ViolationCheck), a=observed, b=expected
  kServerState,   // server lifecycle transition: core=server index,
                  // mode=state id (server_state_name); emitted once with the
                  // initial state when the lifecycle is scheduled, then at
                  // every transition (multi-server lifecycle runs only)
};

// Server lifecycle state ids carried in kServerState's `mode` field.  The
// values mirror cluster::ServerState (static_asserted there); they live here
// so the obs layer can name states without depending on ge_cluster.
inline constexpr std::int32_t kServerStateOnline = 0;
inline constexpr std::int32_t kServerStateDraining = 1;
inline constexpr std::int32_t kServerStateOff = 2;
inline constexpr std::int32_t kServerStateWaking = 3;

// Stable lowercase name of a server state ("online", "draining", "off",
// "waking"); "?" for values outside the enum.
const char* server_state_name(std::int32_t state) noexcept;

// Invariant identities the online watchdog (obs/analysis/watchdog.h) checks;
// kViolation events carry the failed check in their `mode` field.
enum class ViolationCheck : std::int32_t {
  kMonotoneClock = 0,       // an instantaneous event moved backwards in time
  kExecSpan,                // an exec slice ended before it started, or named
                            // a core the server does not have
  kJobOverrun,              // a job settled with executed > demand
  kCapBudget,               // per-core caps of one round sum above the budget
  kSettlementConservation,  // settlements != released jobs at end of run
  kDispatchConservation,    // sum of dispatches != released jobs
  kEnergyIdentity,          // integrated exec-span energy != reported energy
};

// Stable lowercase name of a check ("monotone_clock", ...); "?" for values
// outside the enum.  Used by the JSONL writer and the report generator.
const char* violation_check_name(std::int32_t check) noexcept;

// Execution mode tags shared by kRound / kModeSwitch (mirrors
// GoodEnoughScheduler::Mode; -1 = not applicable).
inline constexpr int kModeAes = 0;
inline constexpr int kModeBq = 1;

// Fields run widest first so the record packs to 64 bytes with no interior
// padding: six 8-byte fields, two 4-byte ones, the 1-byte type, then 7
// bytes of tail padding.  Initialise by name, never positionally.  trace.bin
// stores the fields one by one in its own order (trace_bin.h), so this
// layout never reaches a file.
struct TraceEvent {
  double t = 0.0;   // simulated seconds
  double t2 = 0.0;  // slice end for kExec, else unused
  std::int64_t job = -1;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  std::int32_t core = -1;
  std::int32_t mode = -1;
  TraceEventType type = TraceEventType::kArrival;
};
static_assert(sizeof(TraceEvent) == 64,
              "a TraceBuffer holds millions of events: keep TraceEvent at 64 "
              "bytes, and add any new field to trace.bin's record too");

// Live tap on a TraceBuffer: on_event fires synchronously inside push(),
// after the event is stored.  An observer may push follow-up events into the
// same buffer from inside on_event (the watchdog records violations that
// way); it must tolerate seeing those re-entrantly.
class TraceObserver {
 public:
  virtual ~TraceObserver() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

class TraceBuffer {
 public:
  void push(const TraceEvent& event) {
    events_.push_back(event);
    if (observer_ != nullptr) {
      observer_->on_event(event);
    }
  }
  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }

  // Replaces the stored events wholesale (the report-dir loader fills a
  // buffer this way).  The observer sees none of them.
  void assign(std::vector<TraceEvent> events) noexcept { events_ = std::move(events); }

  // At most one observer; nullptr detaches.  The observer must outlive every
  // push() (the runner detaches the watchdog before tearing it down).
  void set_observer(TraceObserver* observer) noexcept { observer_ = observer; }
  TraceObserver* observer() const noexcept { return observer_; }

 private:
  std::vector<TraceEvent> events_;
  TraceObserver* observer_ = nullptr;
};

enum class TraceFormat { kJsonl, kChrome };

// The format named "jsonl" / "chrome"; nullopt for any other name.
std::optional<TraceFormat> find_trace_format(const std::string& name);

// Static description of the run a buffer came from, rendered into the
// per-task "meta" line (JSONL) / process metadata (Chrome).
struct TraceTaskInfo {
  std::size_t task = 0;       // task index within the plan
  std::string scheduler;      // display name of the scheduler
  double arrival_rate = 0.0;  // req/s
  std::size_t cores = 0;
  double power_budget = 0.0;    // W
  std::string power_model_json;  // PowerModel::describe_json()
  // DVFS ladder levels in processing units/s (DiscreteSpeedTable::levels()),
  // ascending; empty = continuous speeds.  Rendered into the meta record so
  // offline passes (the reclaim advisor) can re-speed against the same
  // ladder the run used.
  std::vector<double> ladder_units;
};

// Appends the JSONL rendering of one task -- its meta record, then one line
// per event: the bytes TraceWriter writes for it -- to `out`.
void append_trace_jsonl(std::string& out, const TraceTaskInfo& info,
                        const TraceBuffer& buffer);

// Streaming trace writer: open(), then append_task() once per task in task
// order, then close().  Output is deterministic: bytes depend only on the
// (info, buffer) sequence.
class TraceWriter {
 public:
  TraceWriter(std::ostream& out, TraceFormat format);

  void append_task(const TraceTaskInfo& info, const TraceBuffer& buffer);

  // Terminates the stream (Chrome: closes the JSON array).  Must be called
  // exactly once, after the last task.
  void close();

 private:
  void append_jsonl(const TraceTaskInfo& info, const TraceBuffer& buffer);
  void append_chrome(const TraceTaskInfo& info, const TraceBuffer& buffer);

  std::ostream& out_;
  TraceFormat format_;
  std::string text_;  // JSONL rendered but not yet written; reused
  bool first_record_ = true;
  bool closed_ = false;
};

}  // namespace ge::obs
