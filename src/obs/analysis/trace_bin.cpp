#include "obs/analysis/trace_bin.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <type_traits>

#include "util/check.h"

namespace ge::obs::analysis {
namespace {

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "trace.bin needs a little- or big-endian host");

// Events per encode/decode chunk: bounds the staging bytes (~230 KB) while
// keeping the stream calls few.
constexpr std::size_t kChunkRecords = 4096;
constexpr auto kLastType = static_cast<std::uint8_t>(TraceEventType::kServerState);

// Stores `value`'s bytes little-endian at `p`.
template <typename T>
void store(unsigned char* p, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(p, &value, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(p, p + sizeof(T));
  }
}

// The little-endian T at `p`.
template <typename T>
T load(const unsigned char* p) {
  std::array<unsigned char, sizeof(T)> bytes;
  std::memcpy(bytes.data(), p, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(bytes.begin(), bytes.end());
  }
  T value;
  std::memcpy(&value, bytes.data(), sizeof(T));
  return value;
}

// Appends little-endian fields to a byte string.
class Encoder {
 public:
  explicit Encoder(std::string& out) : out_(out) {}
  template <typename T>
  Encoder& put(T value) {
    unsigned char bytes[sizeof(T)];
    store(bytes, value);
    out_.append(reinterpret_cast<const char*>(bytes), sizeof(T));
    return *this;
  }
  Encoder& put_string(const std::string& text) {
    put(static_cast<std::uint32_t>(text.size()));
    out_.append(text);
    return *this;
  }

 private:
  std::string& out_;
};

void encode_event(unsigned char* p, const TraceEvent& ev) {
  store(p, static_cast<std::uint8_t>(ev.type));
  store(p + 1, ev.t);
  store(p + 9, ev.t2);
  store(p + 17, ev.core);
  store(p + 21, ev.job);
  store(p + 29, ev.mode);
  store(p + 33, ev.a);
  store(p + 41, ev.b);
  store(p + 49, ev.c);
}

TraceEvent decode_event(const unsigned char* p) {
  TraceEvent ev;
  ev.type = static_cast<TraceEventType>(p[0]);
  ev.t = load<double>(p + 1);
  ev.t2 = load<double>(p + 9);
  ev.core = load<std::int32_t>(p + 17);
  ev.job = load<std::int64_t>(p + 21);
  ev.mode = load<std::int32_t>(p + 29);
  ev.a = load<double>(p + 33);
  ev.b = load<double>(p + 41);
  ev.c = load<double>(p + 49);
  return ev;
}
static_assert(1 + 8 + 8 + 4 + 8 + 4 + 8 + 8 + 8 == kTraceBinRecordBytes);

// Reads fields off a stream of known length; every read fails cleanly
// (returns false) instead of running past the end.
class Decoder {
 public:
  Decoder(std::istream& in, std::uint64_t size) : in_(in), remaining_(size) {}

  std::uint64_t remaining() const noexcept { return remaining_; }

  bool bytes(void* dst, std::uint64_t n) {
    if (n > remaining_ ||
        !in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n))) {
      return false;
    }
    remaining_ -= n;
    return true;
  }
  template <typename T>
  bool get(T& value) {
    unsigned char buf[sizeof(T)];
    if (!bytes(buf, sizeof(T))) {
      return false;
    }
    value = load<T>(buf);
    return true;
  }
  bool get_string(std::string& text) {
    std::uint32_t size = 0;
    // Checked before the resize: a corrupt length must not allocate.
    if (!get(size) || size > remaining_) {
      return false;
    }
    text.resize(size);
    return bytes(text.data(), size);
  }

 private:
  std::istream& in_;
  std::uint64_t remaining_;
};

// Reads one task's events in chunks straight into a vector sized once.
// "" on success, else why not.
std::string read_events(Decoder& in, std::uint64_t count, TraceBuffer& buffer) {
  if (count > in.remaining() / kTraceBinRecordBytes) {
    return "truncated (fewer bytes than the event count needs)";
  }
  std::vector<TraceEvent> events;
  events.reserve(static_cast<std::size_t>(count));
  std::vector<unsigned char> chunk(kChunkRecords * kTraceBinRecordBytes);
  for (std::uint64_t left = count; left > 0;) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, kChunkRecords));
    if (!in.bytes(chunk.data(), n * kTraceBinRecordBytes)) {
      return "truncated (read failed inside the events)";
    }
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned char* p = chunk.data() + i * kTraceBinRecordBytes;
      if (p[0] > kLastType) {
        return "event type " + std::to_string(p[0]) + " out of range";
      }
      events.push_back(decode_event(p));
    }
    left -= n;
  }
  buffer.assign(std::move(events));
  return "";
}

// Reads the task record at position `index`; "" on success, else why not.
std::string read_task(Decoder& in, std::uint64_t index, ParsedTask& task) {
  std::uint64_t task_index = 0;
  std::uint64_t cores = 0;
  double a = 0.0;
  double beta = 0.0;
  double units_per_ghz = 0.0;
  std::uint64_t levels = 0;
  if (!in.get(task_index) || !in.get_string(task.info.scheduler) ||
      !in.get(task.info.arrival_rate) || !in.get(cores) ||
      !in.get(task.info.power_budget) || !in.get(a) || !in.get(beta) ||
      !in.get(units_per_ghz) || !in.get(levels)) {
    return "truncated (file ends inside task " + std::to_string(index) +
           "'s description)";
  }
  if (task_index != index) {
    return "task records out of order (found task " + std::to_string(task_index) +
           " at position " + std::to_string(index) + ")";
  }
  // PowerModel's own preconditions, checked here so a corrupt file is an
  // error message rather than an abort.
  if (!(std::isfinite(a) && std::isfinite(beta) && std::isfinite(units_per_ghz) &&
        a > 0.0 && beta > 1.0 && units_per_ghz > 0.0)) {
    return "task " + std::to_string(index) + " has an invalid power model";
  }
  // Checked before the resize, so a corrupt length cannot allocate more
  // than the file holds.
  if (levels > in.remaining() / sizeof(double)) {
    return "truncated (fewer bytes than task " + std::to_string(index) +
           "'s ladder needs)";
  }
  task.info.task = static_cast<std::size_t>(task_index);
  task.info.cores = static_cast<std::size_t>(cores);
  task.model = power::PowerModel(a, beta, units_per_ghz);
  task.info.power_model_json = task.model.describe_json();
  task.info.ladder_units.resize(static_cast<std::size_t>(levels));
  std::uint64_t count = 0;
  for (double& level : task.info.ladder_units) {
    if (!in.get(level)) {
      return "read failed inside task " + std::to_string(index) + "'s ladder";
    }
  }
  if (!in.get(count)) {
    return "truncated (file ends before task " + std::to_string(index) +
           "'s event count)";
  }
  return read_events(in, count, task.buffer);
}

}  // namespace

void write_trace_bin(std::ostream& out, const std::vector<TraceBinTask>& tasks) {
  std::string head(kTraceBinMagic, sizeof(kTraceBinMagic));
  Encoder enc(head);
  enc.put(kTraceBinVersion).put(static_cast<std::uint64_t>(tasks.size()));
  std::vector<unsigned char> chunk(kChunkRecords * kTraceBinRecordBytes);
  for (const TraceBinTask& task : tasks) {
    GE_CHECK(task.info != nullptr && task.events != nullptr,
             "trace.bin task needs its info and events");
    const TraceTaskInfo& info = *task.info;
    const std::vector<TraceEvent>& events = *task.events;
    enc.put(static_cast<std::uint64_t>(info.task))
        .put_string(info.scheduler)
        .put(info.arrival_rate)
        .put(static_cast<std::uint64_t>(info.cores))
        .put(info.power_budget)
        .put(task.model.a())
        .put(task.model.beta())
        .put(task.model.units_per_ghz())
        .put(static_cast<std::uint64_t>(info.ladder_units.size()));
    for (double level : info.ladder_units) {
      enc.put(level);
    }
    enc.put(static_cast<std::uint64_t>(events.size()));
    out.write(head.data(), static_cast<std::streamsize>(head.size()));
    head.clear();
    for (std::size_t from = 0; from < events.size(); from += kChunkRecords) {
      const std::size_t n = std::min(kChunkRecords, events.size() - from);
      for (std::size_t i = 0; i < n; ++i) {
        encode_event(chunk.data() + i * kTraceBinRecordBytes, events[from + i]);
      }
      out.write(reinterpret_cast<const char*>(chunk.data()),
                static_cast<std::streamsize>(n * kTraceBinRecordBytes));
    }
  }
  out.write(head.data(), static_cast<std::streamsize>(head.size()));  // no tasks
}

std::string read_trace_bin(const std::string& path, std::vector<ParsedTask>& tasks) {
  tasks.clear();
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream file(path, std::ios::binary);
  if (ec || !file.good()) {
    return path + ": cannot open";
  }
  Decoder in(file, size);
  char magic[sizeof(kTraceBinMagic)];
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  if (!in.bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kTraceBinMagic, sizeof(magic)) != 0) {
    return path + ": not a goodenough binary trace (bad magic)";
  }
  if (!in.get(version) || !in.get(count)) {
    return path + ": truncated (file ends inside the header)";
  }
  if (version != kTraceBinVersion) {
    return path + ": trace.bin version " + std::to_string(version) +
           " is not the supported version " + std::to_string(kTraceBinVersion) +
           " (regenerate with this build's --report)";
  }
  std::vector<ParsedTask> parsed;
  // Every task consumes bytes or fails, so a corrupt count cannot make
  // this loop outrun the file.
  for (std::uint64_t i = 0; i < count; ++i) {
    ParsedTask& task = parsed.emplace_back();
    if (std::string error = read_task(in, i, task); !error.empty()) {
      return path + ": " + error;
    }
  }
  if (in.remaining() != 0) {
    return path + ": " + std::to_string(in.remaining()) +
           " trailing bytes after the last task";
  }
  tasks = std::move(parsed);
  return "";
}

}  // namespace ge::obs::analysis
