#include "obs/trace.hpp"

#include <cstring>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace coe::obs {

const char* to_string(TraceEvent::Kind k) {
  switch (k) {
    case TraceEvent::Kind::Kernel: return "kernel";
    case TraceEvent::Kind::TransferH2D: return "h2d";
    case TraceEvent::Kind::TransferD2H: return "d2h";
    case TraceEvent::Kind::EventRecord: return "event_record";
    case TraceEvent::Kind::EventWait: return "event_wait";
    case TraceEvent::Kind::Sync: return "sync";
  }
  return "?";
}

const char* to_string(TraceEvent::Bound b) {
  switch (b) {
    case TraceEvent::Bound::Compute: return "compute";
    case TraceEvent::Bound::Memory: return "memory";
  }
  return "?";
}

std::string process_metadata_events(int rank, const std::string& label) {
  // Chrome metadata rows: name the pid and pin its sort order so a merged
  // multi-rank document lists ranks in rank order, not arrival order. The
  // ts field is not required by the format but keeps every event uniform
  // for schema validators.
  const std::string pid = std::to_string(rank);
  return "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" + pid +
         ",\"args\":{\"name\":\"" + Json::escape(label) +
         "\"}},{\"name\":\"process_sort_index\",\"ph\":\"M\",\"ts\":0,"
         "\"pid\":" + pid + ",\"args\":{\"sort_index\":" + pid + "}}";
}

void write_chrome_trace(std::ostream& os, const TraceBuffer& buf,
                        const std::vector<std::string>* extra_events) {
  const int pid = buf.rank();
  os << "{\"traceEvents\":["
     << process_metadata_events(pid, "rank " + std::to_string(pid));
  for (const auto& e : buf.snapshot()) {
    os << ",";
    // Complete ("X") events, one viewer process per rank and one row per
    // simulated stream so cross-stream overlap reads directly in the
    // timeline. Markers become zero-duration events on the same row;
    // `args.dep` keeps the ordering edge recoverable.
    const int tid = e.stream;
    os << "{\"name\":\"" << Json::escape(e.label) << "\",\"cat\":\""
       << Json::escape(e.phase) << "\",\"ph\":\"X\",\"ts\":"
       << Json::number(e.t_start * 1e6).dump()
       << ",\"dur\":" << Json::number(e.duration * 1e6).dump()
       << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"args\":{\"kind\":\""
       << to_string(e.kind) << "\",\"bound\":\"" << to_string(e.bound)
       << "\",\"backend\":\"" << Json::escape(e.backend)
       << "\",\"flops\":" << Json::number(e.flops).dump()
       << ",\"bytes\":" << Json::number(e.bytes).dump()
       << ",\"stream\":" << e.stream << ",\"dep\":" << e.dep << "}}";
  }
  if (extra_events) {
    for (const auto& ev : *extra_events) {
      os << "," << ev;
    }
  }
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
     << buf.dropped() << ",\"machine\":\"" << Json::escape(buf.source())
     << "\",\"launch_overhead_s\":"
     << Json::number(buf.launch_overhead()).dump()
     << ",\"rank\":" << pid
     << ",\"retained_events\":" << buf.size() << "}}";
}

std::string chrome_trace_json(const TraceBuffer& buf) {
  std::ostringstream os;
  write_chrome_trace(os, buf);
  return os.str();
}

namespace {

/// Maps a parsed backend string onto the static strings TraceEvent uses;
/// unknown backends collapse to "" rather than dangling.
const char* intern_backend(const std::string& s) {
  if (s == "seq") return "seq";
  if (s == "device") return "device";
  return "";
}

bool parse_kind(const std::string& s, TraceEvent::Kind* out) {
  for (auto k : {TraceEvent::Kind::Kernel, TraceEvent::Kind::TransferH2D,
                 TraceEvent::Kind::TransferD2H, TraceEvent::Kind::EventRecord,
                 TraceEvent::Kind::EventWait, TraceEvent::Kind::Sync}) {
    if (s == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

TraceBuffer parse_chrome_trace(std::string_view text) {
  const Json doc = Json::parse(text);
  if (!doc.contains("traceEvents") || !doc.at("traceEvents").is_array()) {
    throw JsonError("chrome trace has no traceEvents array");
  }
  const auto& events = doc.at("traceEvents").items();
  TraceBuffer buf(events.size() ? events.size() : 1);
  for (const Json& je : events) {
    // Only the events this writer emits round-trip: complete events whose
    // args carry a recognized kind. Flow/metadata events are decoration.
    if (!je.is_object() || !je.contains("args") ||
        !je.at("args").is_object()) {
      continue;
    }
    const Json& args = je.at("args");
    if (!args.contains("kind") || !args.at("kind").is_string()) continue;
    TraceEvent e;
    if (!parse_kind(args.at("kind").as_string(), &e.kind)) continue;
    if (!je.contains("ts") || !je.contains("dur")) continue;
    e.t_start = je.at("ts").as_number() * 1e-6;
    e.duration = je.at("dur").as_number() * 1e-6;
    if (je.contains("name")) e.label = je.at("name").as_string();
    if (je.contains("cat")) e.phase = je.at("cat").as_string();
    if (args.contains("bound") && args.at("bound").is_string()) {
      e.bound = args.at("bound").as_string() == "compute"
                    ? TraceEvent::Bound::Compute
                    : TraceEvent::Bound::Memory;
    }
    if (args.contains("backend") && args.at("backend").is_string()) {
      e.backend = intern_backend(args.at("backend").as_string());
    }
    if (args.contains("flops")) e.flops = args.at("flops").as_number();
    if (args.contains("bytes")) e.bytes = args.at("bytes").as_number();
    if (args.contains("stream")) {
      e.stream = static_cast<int>(args.at("stream").as_number());
    } else if (je.contains("tid")) {
      e.stream = static_cast<int>(je.at("tid").as_number());
    }
    if (args.contains("dep")) {
      e.dep = static_cast<std::int64_t>(args.at("dep").as_number());
    }
    buf.push(std::move(e));
  }
  if (doc.contains("otherData") && doc.at("otherData").is_object()) {
    const Json& meta = doc.at("otherData");
    std::string machine;
    double overhead = 0.0;
    if (meta.contains("machine") && meta.at("machine").is_string()) {
      machine = meta.at("machine").as_string();
    }
    if (meta.contains("launch_overhead_s")) {
      overhead = meta.at("launch_overhead_s").as_number();
    }
    buf.set_source(std::move(machine), overhead);
    if (meta.contains("rank")) {
      buf.set_rank(static_cast<int>(meta.at("rank").as_number()));
    }
    if (meta.contains("dropped_events")) {
      buf.note_dropped(static_cast<std::uint64_t>(
          meta.at("dropped_events").as_number()));
    }
  }
  return buf;
}

}  // namespace coe::obs
