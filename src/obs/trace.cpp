#include "obs/trace.h"

#include <charconv>
#include <concepts>
#include <string_view>

#include "obs/format.h"
#include "util/check.h"

namespace ge::obs {
namespace {

// ostream-style appends into a string: text verbatim, integers in decimal,
// doubles as %.12g.
class Appender {
 public:
  explicit Appender(std::string& out) : out_(out) {}
  Appender& operator<<(std::string_view text) {
    out_.append(text);
    return *this;
  }
  Appender& operator<<(double v) {
    append_g12(out_, v);
    return *this;
  }
  template <std::integral T>
  Appender& operator<<(T v) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    return *this;
  }

 private:
  std::string& out_;
};

// Chrome records are assembled by string concatenation.
std::string fmt(double v) { return fmt_g12(v); }

const char* mode_name(int mode) {
  switch (mode) {
    case kModeAes: return "AES";
    case kModeBq: return "BQ";
    default: return "?";
  }
}

// Minimal JSON string escaping; scheduler names and model descriptions are
// plain ASCII, so quotes and backslashes are the only risk.
std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
    }
    out.push_back(ch);
  }
  return out;
}

// Renders one task as JSONL into `text`, calling flush(text) after every
// line so a stream writer can bound the text it holds.
template <typename Flush>
void render_jsonl(std::string& text, const TraceTaskInfo& info,
                  const TraceBuffer& buffer, Flush&& flush) {
  Appender out(text);
  const std::string task = std::to_string(info.task);
  out << "{\"ev\": \"meta\", \"task\": " << task << ", \"scheduler\": \""
      << escape(info.scheduler) << "\", \"arrival_rate\": " << info.arrival_rate
      << ", \"cores\": " << info.cores
      << ", \"power_budget_w\": " << info.power_budget
      << ", \"power_model\": " << info.power_model_json << ", \"ladder\": [";
  for (std::size_t i = 0; i < info.ladder_units.size(); ++i) {
    out << (i == 0 ? "" : ", ") << info.ladder_units[i];
  }
  out << "]}\n";
  flush(text);
  for (const TraceEvent& ev : buffer.events()) {
    switch (ev.type) {
      case TraceEventType::kArrival:
        out << "{\"ev\": \"arrival\", \"task\": " << task << ", \"t\": " << ev.t
            << ", \"job\": " << ev.job << ", \"demand\": " << ev.a
            << ", \"deadline\": " << ev.b
            << ", \"tenant\": " << static_cast<std::int64_t>(ev.c) << "}\n";
        break;
      case TraceEventType::kRound:
        out << "{\"ev\": \"round\", \"task\": " << task << ", \"t\": " << ev.t
            << ", \"round\": " << ev.c << ", \"mode\": \"" << mode_name(ev.mode)
            << "\", \"waiting\": " << ev.a << ", \"rate\": " << ev.b
            << "}\n";
        break;
      case TraceEventType::kModeSwitch:
        out << "{\"ev\": \"mode\", \"task\": " << task << ", \"t\": " << ev.t
            << ", \"mode\": \"" << mode_name(ev.mode)
            << "\", \"quality\": " << ev.a << "}\n";
        break;
      case TraceEventType::kCut:
        out << "{\"ev\": \"cut\", \"task\": " << task << ", \"t\": " << ev.t
            << ", \"core\": " << ev.core << ", \"jobs\": " << ev.a
            << ", \"level\": " << ev.b << ", \"target_units\": " << ev.c
            << "}\n";
        break;
      case TraceEventType::kCap:
        out << "{\"ev\": \"cap\", \"task\": " << task << ", \"t\": " << ev.t
            << ", \"core\": " << ev.core << ", \"watts\": " << ev.a << "}\n";
        break;
      case TraceEventType::kExec:
        out << "{\"ev\": \"exec\", \"task\": " << task << ", \"t\": " << ev.t
            << ", \"t_end\": " << ev.t2 << ", \"core\": " << ev.core
            << ", \"job\": " << ev.job << ", \"speed\": " << ev.a << "}\n";
        break;
      case TraceEventType::kCompletion:
      case TraceEventType::kDeadlineMiss:
        out << "{\"ev\": \""
            << (ev.type == TraceEventType::kCompletion ? "completion"
                                                       : "deadline_miss")
            << "\", \"task\": " << task << ", \"t\": " << ev.t
            << ", \"core\": " << ev.core << ", \"job\": " << ev.job
            << ", \"executed\": " << ev.a << ", \"demand\": " << ev.b
            << ", \"quality\": " << ev.c << "}\n";
        break;
      case TraceEventType::kCoreOffline:
        out << "{\"ev\": \"core_offline\", \"task\": " << task
            << ", \"t\": " << ev.t << ", \"core\": " << ev.core << "}\n";
        break;
      case TraceEventType::kDispatch:
        out << "{\"ev\": \"dispatch\", \"task\": " << task
            << ", \"t\": " << ev.t << ", \"job\": " << ev.job
            << ", \"server\": " << ev.core << ", \"in_flight\": " << ev.a
            << "}\n";
        break;
      case TraceEventType::kAssign:
        out << "{\"ev\": \"assign\", \"task\": " << task
            << ", \"t\": " << ev.t << ", \"job\": " << ev.job
            << ", \"core\": " << ev.core << "}\n";
        break;
      case TraceEventType::kViolation:
        out << "{\"ev\": \"violation\", \"task\": " << task
            << ", \"t\": " << ev.t << ", \"check\": \""
            << violation_check_name(ev.mode) << "\", \"observed\": " << ev.a
            << ", \"expected\": " << ev.b << "}\n";
        break;
      case TraceEventType::kServerState:
        out << "{\"ev\": \"server_state\", \"task\": " << task
            << ", \"t\": " << ev.t << ", \"server\": " << ev.core
            << ", \"state\": \"" << server_state_name(ev.mode) << "\"}\n";
        break;
    }
    flush(text);
  }
}

}  // namespace

const char* violation_check_name(std::int32_t check) noexcept {
  switch (static_cast<ViolationCheck>(check)) {
    case ViolationCheck::kMonotoneClock: return "monotone_clock";
    case ViolationCheck::kExecSpan: return "exec_span";
    case ViolationCheck::kJobOverrun: return "job_overrun";
    case ViolationCheck::kCapBudget: return "cap_budget";
    case ViolationCheck::kSettlementConservation: return "settlement_conservation";
    case ViolationCheck::kDispatchConservation: return "dispatch_conservation";
    case ViolationCheck::kEnergyIdentity: return "energy_identity";
  }
  return "?";
}

const char* server_state_name(std::int32_t state) noexcept {
  switch (state) {
    case kServerStateOnline: return "online";
    case kServerStateDraining: return "draining";
    case kServerStateOff: return "off";
    case kServerStateWaking: return "waking";
    default: return "?";
  }
}

std::optional<TraceFormat> find_trace_format(const std::string& name) {
  if (name == "jsonl") {
    return TraceFormat::kJsonl;
  }
  if (name == "chrome") {
    return TraceFormat::kChrome;
  }
  return std::nullopt;
}

TraceWriter::TraceWriter(std::ostream& out, TraceFormat format)
    : out_(out), format_(format) {
  if (format_ == TraceFormat::kChrome) {
    out_ << "[";
  }
}

void TraceWriter::append_task(const TraceTaskInfo& info, const TraceBuffer& buffer) {
  GE_CHECK(!closed_, "append_task after close");
  if (format_ == TraceFormat::kJsonl) {
    append_jsonl(info, buffer);
  } else {
    append_chrome(info, buffer);
  }
}

void TraceWriter::close() {
  GE_CHECK(!closed_, "trace writer closed twice");
  closed_ = true;
  if (format_ == TraceFormat::kChrome) {
    out_ << "\n]\n";
  }
}

void append_trace_jsonl(std::string& out, const TraceTaskInfo& info,
                        const TraceBuffer& buffer) {
  render_jsonl(out, info, buffer, [](std::string&) {});
}

void TraceWriter::append_jsonl(const TraceTaskInfo& info, const TraceBuffer& buffer) {
  constexpr std::size_t kFlushBytes = std::size_t{1} << 16;
  render_jsonl(text_, info, buffer, [this](std::string& text) {
    if (text.size() >= kFlushBytes) {
      out_.write(text.data(), static_cast<std::streamsize>(text.size()));
      text.clear();
    }
  });
  out_.write(text_.data(), static_cast<std::streamsize>(text_.size()));
  text_.clear();
}

void TraceWriter::append_chrome(const TraceTaskInfo& info, const TraceBuffer& buffer) {
  const std::string pid = std::to_string(info.task);
  auto record = [this](const std::string& body) {
    out_ << (first_record_ ? "\n" : ",\n") << body;
    first_record_ = false;
  };
  // Timestamps are microseconds in the trace_event format; the simulation
  // clock is seconds.
  auto us = [](double t) { return fmt(t * 1e6); };

  record("{\"ph\": \"M\", \"pid\": " + pid +
         ", \"name\": \"process_name\", \"args\": {\"name\": \"task " + pid + ": " +
         escape(info.scheduler) + " @ " + fmt(info.arrival_rate) + " req/s\"}}");
  record("{\"ph\": \"M\", \"pid\": " + pid +
         ", \"tid\": 0, \"name\": \"thread_name\", \"args\": {\"name\": "
         "\"scheduler\"}}");
  for (std::size_t i = 0; i < info.cores; ++i) {
    record("{\"ph\": \"M\", \"pid\": " + pid + ", \"tid\": " + std::to_string(i + 1) +
           ", \"name\": \"thread_name\", \"args\": {\"name\": \"core " +
           std::to_string(i) + "\"}}");
  }

  for (const TraceEvent& ev : buffer.events()) {
    // Events with no core land on the scheduler track (tid 0).
    const std::string tid = std::to_string(ev.core + 1);
    switch (ev.type) {
      case TraceEventType::kArrival:
        record("{\"ph\": \"i\", \"pid\": " + pid + ", \"tid\": 0, \"ts\": " +
               us(ev.t) + ", \"s\": \"t\", \"name\": \"arrival\", \"cat\": "
               "\"job\", \"args\": {\"job\": " + std::to_string(ev.job) +
               ", \"demand\": " + fmt(ev.a) + "}}");
        break;
      case TraceEventType::kRound:
        record("{\"ph\": \"i\", \"pid\": " + pid + ", \"tid\": 0, \"ts\": " +
               us(ev.t) + ", \"s\": \"t\", \"name\": \"round " +
               std::string(mode_name(ev.mode)) + "\", \"cat\": \"sched\", "
               "\"args\": {\"waiting\": " + fmt(ev.a) + ", \"rate\": " + fmt(ev.b) +
               "}}");
        break;
      case TraceEventType::kModeSwitch:
        record("{\"ph\": \"i\", \"pid\": " + pid + ", \"tid\": 0, \"ts\": " +
               us(ev.t) + ", \"s\": \"p\", \"name\": \"mode -> " +
               std::string(mode_name(ev.mode)) + "\", \"cat\": \"sched\", "
               "\"args\": {\"quality\": " + fmt(ev.a) + "}}");
        break;
      case TraceEventType::kCut:
        record("{\"ph\": \"i\", \"pid\": " + pid + ", \"tid\": " + tid +
               ", \"ts\": " + us(ev.t) + ", \"s\": \"t\", \"name\": \"cut\", "
               "\"cat\": \"sched\", \"args\": {\"jobs\": " + fmt(ev.a) +
               ", \"level\": " + fmt(ev.b) + "}}");
        break;
      case TraceEventType::kCap:
        record("{\"ph\": \"C\", \"pid\": " + pid + ", \"tid\": 0, \"ts\": " +
               us(ev.t) + ", \"name\": \"cap core " + std::to_string(ev.core) +
               "\", \"args\": {\"W\": " + fmt(ev.a) + "}}");
        break;
      case TraceEventType::kExec:
        record("{\"ph\": \"X\", \"pid\": " + pid + ", \"tid\": " + tid +
               ", \"ts\": " + us(ev.t) + ", \"dur\": " + fmt((ev.t2 - ev.t) * 1e6) +
               ", \"name\": \"job " + std::to_string(ev.job) +
               "\", \"cat\": \"exec\", \"args\": {\"speed\": " + fmt(ev.a) + "}}");
        break;
      case TraceEventType::kCompletion:
      case TraceEventType::kDeadlineMiss: {
        const bool miss = ev.type == TraceEventType::kDeadlineMiss;
        record("{\"ph\": \"i\", \"pid\": " + pid + ", \"tid\": " + tid +
               ", \"ts\": " + us(ev.t) + ", \"s\": \"t\", \"name\": \"" +
               (miss ? "deadline miss" : "completion") + "\", \"cat\": \"job\", "
               "\"args\": {\"job\": " + std::to_string(ev.job) + ", \"executed\": " +
               fmt(ev.a) + ", \"demand\": " + fmt(ev.b) + "}}");
        record("{\"ph\": \"C\", \"pid\": " + pid + ", \"tid\": 0, \"ts\": " +
               us(ev.t) + ", \"name\": \"quality\", \"args\": {\"q\": " + fmt(ev.c) +
               "}}");
        break;
      }
      case TraceEventType::kCoreOffline:
        record("{\"ph\": \"i\", \"pid\": " + pid + ", \"tid\": " + tid +
               ", \"ts\": " + us(ev.t) + ", \"s\": \"p\", \"name\": \"core " +
               "offline\", \"cat\": \"fault\", \"args\": {}}");
        break;
      case TraceEventType::kDispatch:
        // Dispatch decisions land on the scheduler track; ev.core is the
        // server index here, not a core id.
        record("{\"ph\": \"i\", \"pid\": " + pid + ", \"tid\": 0, \"ts\": " +
               us(ev.t) + ", \"s\": \"t\", \"name\": \"dispatch -> s" +
               std::to_string(ev.core) + "\", \"cat\": \"cluster\", \"args\": "
               "{\"job\": " + std::to_string(ev.job) + ", \"in_flight\": " +
               fmt(ev.a) + "}}");
        break;
      case TraceEventType::kAssign:
        record("{\"ph\": \"i\", \"pid\": " + pid + ", \"tid\": " + tid +
               ", \"ts\": " + us(ev.t) + ", \"s\": \"t\", \"name\": \"assign job " +
               std::to_string(ev.job) + "\", \"cat\": \"sched\", \"args\": "
               "{\"job\": " + std::to_string(ev.job) + "}}");
        break;
      case TraceEventType::kViolation:
        // Violations are process-scoped: they indict the whole run, not one
        // core track.
        record("{\"ph\": \"i\", \"pid\": " + pid + ", \"tid\": 0, \"ts\": " +
               us(ev.t) + ", \"s\": \"p\", \"name\": \"violation: " +
               std::string(violation_check_name(ev.mode)) + "\", \"cat\": "
               "\"watchdog\", \"args\": {\"observed\": " + fmt(ev.a) +
               ", \"expected\": " + fmt(ev.b) + "}}");
        break;
      case TraceEventType::kServerState:
        // Lifecycle transitions are process-scoped, like dispatch decisions;
        // ev.core is the server index here.
        record("{\"ph\": \"i\", \"pid\": " + pid + ", \"tid\": 0, \"ts\": " +
               us(ev.t) + ", \"s\": \"p\", \"name\": \"s" +
               std::to_string(ev.core) + " -> " +
               std::string(server_state_name(ev.mode)) + "\", \"cat\": "
               "\"lifecycle\", \"args\": {}}");
        break;
    }
  }
}

}  // namespace ge::obs
