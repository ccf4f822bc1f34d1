#include "sim/telemetry.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "sim/causal.hpp"

namespace nicbar::sim {

// --- Trace categories -----------------------------------------------------------

namespace {

struct MaskName {
  const char* name;
  TraceCategory cat;
};

constexpr MaskName kMaskNames[] = {
    {"sdma", TraceCategory::kSdma}, {"send", TraceCategory::kSend},
    {"recv", TraceCategory::kRecv}, {"rdma", TraceCategory::kRdma},
    {"net", TraceCategory::kNet},   {"all", TraceCategory::kAll},
};

}  // namespace

std::optional<std::uint32_t> parse_trace_mask(const std::string& spec) {
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string name = spec.substr(pos, comma - pos);
    bool found = false;
    for (const MaskName& m : kMaskNames) {
      if (name == m.name) {
        mask |= static_cast<std::uint32_t>(m.cat);
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;  // unknown or empty element
    pos = comma + 1;
  }
  return mask;
}

const char* trace_mask_names() {
  return "sdma,send,recv,rdma,net,all";
}

}  // namespace nicbar::sim

namespace nicbar::sim::telemetry {

// --- MetricsRegistry ----------------------------------------------------------

Histogram& MetricsRegistry::histogram(const std::string& name, double lo, double hi,
                                      std::size_t bins) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(lo, hi, bins)).first;
  }
  return it->second;
}

const std::uint64_t* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const double* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  char buf[128];
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    if (!first) os << ',';
    first = false;
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    os << "\n    \"" << json_escape(name) << "\": " << buf;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    if (!first) os << ',';
    first = false;
    std::snprintf(buf, sizeof buf, "%.6f", v);
    os << "\n    \"" << json_escape(name) << "\": " << buf;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    std::snprintf(buf, sizeof buf,
                  "{\"count\": %" PRIu64
                  ", \"lo\": %.6f, \"hi\": %.6f, \"p50\": %.6f, \"p90\": %.6f, "
                  "\"p99\": %.6f}",
                  h.count(), h.lo(), h.hi(), h.percentile(50), h.percentile(90),
                  h.percentile(99));
    os << "\n    \"" << json_escape(name) << "\": " << buf;
  }
  os << "\n  }\n}\n";
}

// --- TraceEventSink -----------------------------------------------------------

int TraceEventSink::track(const std::string& name) {
  const auto it = tracks_.find(name);
  if (it != tracks_.end()) return it->second;
  const int id = static_cast<int>(track_names_.size());
  tracks_.emplace(name, id);
  track_names_.push_back(name);
  return id;
}

void TraceEventSink::duration(int track_id, const char* name, SimTime start, Duration dur,
                              const char* category, TraceCategory cat, std::uint64_t id) {
  if (!pass(cat)) return;
  events_.push_back(Event{'X', track_id, name, category, start.ps(), dur.ps(), id});
}

void TraceEventSink::instant(int track_id, const char* name, SimTime at,
                             const char* category, TraceCategory cat) {
  if (!pass(cat)) return;
  events_.push_back(Event{'i', track_id, name, category, at.ps(), 0, 0});
}

void TraceEventSink::flow_start(int track_id, const char* name, SimTime at, std::uint64_t id,
                                const char* category, TraceCategory cat) {
  if (!pass(cat)) return;
  events_.push_back(Event{'s', track_id, name, category, at.ps(), 0, id});
}

void TraceEventSink::flow_end(int track_id, const char* name, SimTime at, std::uint64_t id,
                              const char* category, TraceCategory cat) {
  if (!pass(cat)) return;
  events_.push_back(Event{'f', track_id, name, category, at.ps(), 0, id});
}

std::size_t TraceEventSink::events_on(int track_id) const {
  std::size_t n = 0;
  for (const Event& e : events_) {
    if (e.track == track_id) ++n;
  }
  return n;
}

void TraceEventSink::write_json(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  bool first = true;
  char buf[256];
  // Thread-name metadata: one named track ("thread") per registered track,
  // all under pid 0; Perfetto renders them as separate rows.
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": " << i
       << ", \"args\": {\"name\": \"" << json_escape(track_names_[i]) << "\"}}";
  }
  for (const Event& e : events_) {
    if (!first) os << ",\n";
    first = false;
    if (e.phase == 'X') {
      if (e.id != 0) {
        std::snprintf(buf, sizeof buf,
                      "  {\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", \"pid\": 0, "
                      "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                      "}}",
                      e.name, e.category, e.track, static_cast<double>(e.ts_ps) * 1e-6,
                      static_cast<double>(e.dur_ps) * 1e-6, e.id);
      } else {
        std::snprintf(buf, sizeof buf,
                      "  {\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", \"pid\": 0, "
                      "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                      e.name, e.category, e.track, static_cast<double>(e.ts_ps) * 1e-6,
                      static_cast<double>(e.dur_ps) * 1e-6);
      }
    } else if (e.phase == 's') {
      std::snprintf(buf, sizeof buf,
                    "  {\"ph\": \"s\", \"name\": \"%s\", \"cat\": \"%s\", \"pid\": 0, "
                    "\"tid\": %d, \"ts\": %.3f, \"id\": %" PRIu64 "}",
                    e.name, e.category, e.track, static_cast<double>(e.ts_ps) * 1e-6, e.id);
    } else if (e.phase == 'f') {
      std::snprintf(buf, sizeof buf,
                    "  {\"ph\": \"f\", \"bp\": \"e\", \"name\": \"%s\", \"cat\": \"%s\", "
                    "\"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"id\": %" PRIu64 "}",
                    e.name, e.category, e.track, static_cast<double>(e.ts_ps) * 1e-6, e.id);
    } else {
      std::snprintf(buf, sizeof buf,
                    "  {\"ph\": \"i\", \"name\": \"%s\", \"cat\": \"%s\", \"pid\": 0, "
                    "\"tid\": %d, \"ts\": %.3f, \"s\": \"t\"}",
                    e.name, e.category, e.track, static_cast<double>(e.ts_ps) * 1e-6);
    }
    os << buf;
  }
  os << "\n]}\n";
}

// --- Telemetry ------------------------------------------------------------------

Telemetry::Telemetry() = default;
Telemetry::~Telemetry() = default;

TraceEventSink& Telemetry::enable_trace() {
  if (!trace_) trace_ = std::make_unique<TraceEventSink>();
  return *trace_;
}

causal::CausalTracer& Telemetry::enable_causal() {
  if (!causal_) causal_ = std::make_unique<causal::CausalTracer>();
  return *causal_;
}

// --- JSON helpers ---------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace nicbar::sim::telemetry
