#include "obs/analysis/trace_reader.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "util/check.h"

namespace ge::obs::analysis {
namespace {

// Malformed input.  The parser and the readers below throw it; each public
// entry point turns it into a checked error, except read_trace_jsonl and
// the error-returning read_metrics_json overload, which hand back its
// one-line reason.
struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& what) { throw ParseError(what); }

void require(bool ok, const char* what) {
  if (!ok) {
    fail(what);
  }
}

// ---- minimal JSON subset parser ---------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // file order

  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
  // Required typed accessors; parse errors keep schema drift loud.
  double num(std::string_view key) const {
    const JsonValue* v = find(key);
    require(v != nullptr && v->kind == Kind::kNumber,
            "trace/metrics JSON: missing numeric field");
    return v->number;
  }
  const std::string& str(std::string_view key) const {
    const JsonValue* v = find(key);
    require(v != nullptr && v->kind == Kind::kString,
            "trace/metrics JSON: missing string field");
    return v->string;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    require(pos_ == text_.size(), "JSON: trailing characters");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    require(pos_ < text_.size(), "JSON: unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch) {
    require(peek() == ch, "JSON: unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue value;
    switch (peek()) {
      case '{': {
        value.kind = JsonValue::Kind::kObject;
        value.object.reserve(kObjectFields);
        expect('{');
        skip_ws();
        if (peek() == '}') {
          expect('}');
          return value;
        }
        while (true) {
          skip_ws();
          std::string key = parse_string();
          skip_ws();
          expect(':');
          value.object.emplace_back(std::move(key), parse_value());
          skip_ws();
          if (peek() == ',') {
            expect(',');
            continue;
          }
          expect('}');
          return value;
        }
      }
      case '[': {
        value.kind = JsonValue::Kind::kArray;
        expect('[');
        skip_ws();
        if (peek() == ']') {
          expect(']');
          return value;
        }
        while (true) {
          value.array.push_back(parse_value());
          skip_ws();
          if (peek() == ',') {
            expect(',');
            continue;
          }
          expect(']');
          return value;
        }
      }
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.string = parse_string();
        return value;
      case 't':
        require(consume_literal("true"), "JSON: bad literal");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
        return value;
      case 'f':
        require(consume_literal("false"), "JSON: bad literal");
        value.kind = JsonValue::Kind::kBool;
        return value;
      case 'n':
        require(consume_literal("null"), "JSON: bad literal");
        return value;
      default:
        value.kind = JsonValue::Kind::kNumber;
        value.number = parse_number();
        return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      require(pos_ < text_.size(), "JSON: unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') {
        return out;
      }
      if (ch == '\\') {
        require(pos_ < text_.size(), "JSON: unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          default:
            fail("JSON: unsupported escape sequence");
        }
        continue;
      }
      out.push_back(ch);
    }
  }

  // Consumes the next character if it is one of `chars`.
  bool consume_any(std::string_view chars) {
    if (pos_ < text_.size() && chars.find(text_[pos_]) != std::string_view::npos) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::size_t consume_digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - from;
  }

  // Scans the JSON number grammar -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  // and converts it with from_chars, correctly rounded like strtod.  Tokens
  // JSON does not allow (inf, nan, hex floats, a leading '+' or '0', "1.",
  // ".5") and values beyond double range are parse errors.
  double parse_number() {
    const std::size_t begin = pos_;
    consume_any("-");
    const bool leading_zero = pos_ < text_.size() && text_[pos_] == '0';
    const std::size_t int_digits = consume_digits();
    bool ok = int_digits > 0 && (!leading_zero || int_digits == 1);
    if (consume_any(".")) {
      ok = ok && consume_digits() > 0;
    }
    if (consume_any("eE")) {
      consume_any("+-");
      ok = ok && consume_digits() > 0;
    }
    require(ok, "JSON: expected a number");
    double value = 0.0;
    const char* end = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(text_.data() + begin, end, value);
    require(ec == std::errc() && ptr == end && std::isfinite(value),
            "JSON: number out of double range");
    return value;
  }

  // Trace records carry at most eight fields; reserving them up front saves
  // the object's regrowth copies.
  static constexpr std::size_t kObjectFields = 8;

  std::string_view text_;
  std::size_t pos_ = 0;
};

int parse_mode(const std::string& name) {
  if (name == "AES") return kModeAes;
  if (name == "BQ") return kModeBq;
  return -1;
}

// Index of `name` in the table `name_of` spells ("?" past its end); an
// unknown name is a checked error naming `what`.
std::int32_t parse_name(const std::string& name,
                        const char* (*name_of)(std::int32_t), const char* what) {
  for (std::int32_t i = 0;; ++i) {
    const char* known = name_of(i);
    if (std::string_view(known) == "?") {
      fail(std::string("trace JSONL: unknown ") + what + " name");
    }
    if (name == known) {
      return i;
    }
  }
}

power::PowerModel power_model_of(const JsonValue& pm) {
  require(pm.kind == JsonValue::Kind::kObject,
          "trace JSONL: power_model must be an object");
  const double a = pm.num("a");
  const double beta = pm.num("beta");
  const double units_per_ghz = pm.num("units_per_ghz");
  require(a > 0.0 && beta > 1.0 && units_per_ghz > 0.0,
          "trace JSONL: power_model needs a > 0, beta > 1 and units_per_ghz > 0");
  return power::PowerModel(a, beta, units_per_ghz);
}

}  // namespace

power::PowerModel parse_power_model_json(const std::string& json) {
  try {
    return power_model_of(JsonParser(json).parse());
  } catch (const ParseError& e) {
    GE_FAIL(e.what());
  }
}

std::string check_event_indices(const ParsedTask& task) {
  const std::vector<TraceEvent>& events = task.buffer.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    using T = TraceEventType;
    const bool runs_on_core = ev.type == T::kExec || ev.type == T::kAssign;
    const bool names_server = ev.type == T::kDispatch || ev.type == T::kServerState;
    const bool names_job = runs_on_core || ev.type == T::kArrival ||
                           ev.type == T::kDispatch || ev.type == T::kCompletion ||
                           ev.type == T::kDeadlineMiss;
    const char* what = nullptr;
    if (names_job && ev.job < 0) {
      what = "a negative job id";
    } else if (runs_on_core &&
               (ev.core < 0 || static_cast<std::size_t>(ev.core) >= task.info.cores)) {
      what = "a core outside the task's cores per server";
    } else if (names_server && ev.core < 0) {
      what = "a negative server index";
    } else if (ev.type == T::kArrival &&
               !(ev.c >= 0.0 && ev.c < 2147483648.0 && ev.c == std::floor(ev.c))) {
      what = "a tenant that is not an index";  // tenants are int32 indices
    }
    if (what != nullptr) {
      return "task " + std::to_string(task.info.task) + ": event " + std::to_string(i) +
             " (type " + std::to_string(static_cast<int>(ev.type)) + ", job " +
             std::to_string(ev.job) + ", core " + std::to_string(ev.core) + ") names " +
             what;
    }
  }
  return "";
}

namespace {

// Appends the records of a JSONL trace stream to `tasks`, counting lines in
// `line_no`; throws ParseError at the first malformed line.
void read_records(std::istream& in, std::vector<ParsedTask>& tasks,
                  std::size_t& line_no) {
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    const JsonValue record = JsonParser(line).parse();
    require(record.kind == JsonValue::Kind::kObject,
            "trace JSONL: every line must be an object");
    const std::string& kind = record.str("ev");
    if (kind == "meta") {
      ParsedTask task;
      task.info.task = static_cast<std::size_t>(record.num("task"));
      task.info.scheduler = record.str("scheduler");
      task.info.arrival_rate = record.num("arrival_rate");
      task.info.cores = static_cast<std::size_t>(record.num("cores"));
      task.info.power_budget = record.num("power_budget_w");
      const JsonValue* pm = record.find("power_model");
      require(pm != nullptr, "trace JSONL: meta record lacks a power_model object");
      task.model = power_model_of(*pm);
      task.info.power_model_json = task.model.describe_json();
      // Optional for pre-ladder traces; empty = continuous speeds.
      if (const JsonValue* ladder = record.find("ladder"); ladder != nullptr) {
        require(ladder->kind == JsonValue::Kind::kArray,
                "trace JSONL: meta ladder must be an array");
        for (const JsonValue& level : ladder->array) {
          require(level.kind == JsonValue::Kind::kNumber,
                  "trace JSONL: meta ladder entries must be numbers");
          task.info.ladder_units.push_back(level.number);
        }
      }
      require(task.info.task == tasks.size(),
              "trace JSONL: meta records out of order");
      tasks.push_back(std::move(task));
      continue;
    }
    require(!tasks.empty(), "trace JSONL: event before the first meta record");
    require(static_cast<std::size_t>(record.num("task")) == tasks.size() - 1,
            "trace JSONL: event names a task other than the current one");
    TraceEvent ev;
    ev.t = record.num("t");
    if (kind == "arrival") {
      ev.type = TraceEventType::kArrival;
      ev.job = static_cast<std::int64_t>(record.num("job"));
      ev.a = record.num("demand");
      ev.b = record.num("deadline");
      // Tenant id rides in c; absent in pre-tenant traces (=> tenant 0).
      const JsonValue* tenant = record.find("tenant");
      ev.c = tenant != nullptr ? tenant->number : 0.0;
    } else if (kind == "round") {
      ev.type = TraceEventType::kRound;
      ev.mode = parse_mode(record.str("mode"));
      ev.a = record.num("waiting");
      ev.b = record.num("rate");
      ev.c = record.num("round");
    } else if (kind == "mode") {
      ev.type = TraceEventType::kModeSwitch;
      ev.mode = parse_mode(record.str("mode"));
      ev.a = record.num("quality");
    } else if (kind == "cut") {
      ev.type = TraceEventType::kCut;
      ev.core = static_cast<std::int32_t>(record.num("core"));
      ev.a = record.num("jobs");
      ev.b = record.num("level");
      ev.c = record.num("target_units");
    } else if (kind == "cap") {
      ev.type = TraceEventType::kCap;
      ev.core = static_cast<std::int32_t>(record.num("core"));
      ev.a = record.num("watts");
    } else if (kind == "exec") {
      ev.type = TraceEventType::kExec;
      ev.t2 = record.num("t_end");
      ev.core = static_cast<std::int32_t>(record.num("core"));
      ev.job = static_cast<std::int64_t>(record.num("job"));
      ev.a = record.num("speed");
    } else if (kind == "completion" || kind == "deadline_miss") {
      ev.type = kind == "completion" ? TraceEventType::kCompletion
                                     : TraceEventType::kDeadlineMiss;
      ev.core = static_cast<std::int32_t>(record.num("core"));
      ev.job = static_cast<std::int64_t>(record.num("job"));
      ev.a = record.num("executed");
      ev.b = record.num("demand");
      ev.c = record.num("quality");
    } else if (kind == "core_offline") {
      ev.type = TraceEventType::kCoreOffline;
      ev.core = static_cast<std::int32_t>(record.num("core"));
    } else if (kind == "dispatch") {
      ev.type = TraceEventType::kDispatch;
      ev.job = static_cast<std::int64_t>(record.num("job"));
      ev.core = static_cast<std::int32_t>(record.num("server"));
      ev.a = record.num("in_flight");
    } else if (kind == "assign") {
      ev.type = TraceEventType::kAssign;
      ev.job = static_cast<std::int64_t>(record.num("job"));
      ev.core = static_cast<std::int32_t>(record.num("core"));
    } else if (kind == "violation") {
      ev.type = TraceEventType::kViolation;
      ev.mode = parse_name(record.str("check"), violation_check_name, "violation check");
      ev.a = record.num("observed");
      ev.b = record.num("expected");
    } else if (kind == "server_state") {
      ev.type = TraceEventType::kServerState;
      ev.core = static_cast<std::int32_t>(record.num("server"));
      ev.mode = parse_name(record.str("state"), server_state_name,
                           "server lifecycle state");
    } else {
      fail("trace JSONL: unknown event kind");
    }
    tasks.back().buffer.push(ev);
  }
}

}  // namespace

std::string read_trace_jsonl(std::istream& in, std::vector<ParsedTask>& tasks) {
  tasks.clear();
  std::size_t line_no = 0;
  try {
    read_records(in, tasks, line_no);
  } catch (const ParseError& e) {
    tasks.clear();
    return "line " + std::to_string(line_no) + ": " + e.what();
  }
  return "";
}

double MetricsValues::get(const std::string& name, double fallback) const {
  for (const auto& [key, value] : values) {
    if (key == name) {
      return value;
    }
  }
  return fallback;
}

bool MetricsValues::has(const std::string& name) const {
  for (const auto& [key, value] : values) {
    if (key == name) {
      return true;
    }
  }
  return false;
}

namespace {

MetricsValues metrics_of(const JsonValue& root) {
  const std::string& schema = root.str("schema");  // checked, object or not
  if (schema != "goodenough-metrics-v2") {
    fail("metrics JSON: schema '" + schema +
         "' is not goodenough-metrics-v2 (v1 files are no longer read; "
         "re-run to regenerate)");
  }
  const JsonValue* metrics = root.find("metrics");
  require(metrics != nullptr && metrics->kind == JsonValue::Kind::kArray,
          "metrics JSON: missing metrics array");
  MetricsValues out;
  for (const JsonValue& entry : metrics->array) {
    const std::string& name = entry.str("name");
    const std::string& type = entry.str("type");
    if (type == "histogram") {
      out.values.emplace_back(name + ".count", entry.num("count"));
      out.values.emplace_back(name + ".sum", entry.num("sum"));
    } else {
      out.values.emplace_back(name, entry.num("value"));
    }
  }
  return out;
}

}  // namespace

MetricsValues read_metrics_json(std::istream& in) {
  MetricsValues out;
  if (const std::string error = read_metrics_json(in, out); !error.empty()) {
    GE_FAIL(error);
  }
  return out;
}

std::string read_metrics_json(std::istream& in, MetricsValues& out) {
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  try {
    out = metrics_of(JsonParser(text).parse());
  } catch (const ParseError& e) {
    out = {};
    return e.what();
  }
  return "";
}

}  // namespace ge::obs::analysis
