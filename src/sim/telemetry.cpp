#include "sim/telemetry.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace nicbar::sim {

// --- Trace mask -------------------------------------------------------------------

std::optional<std::uint32_t> parse_trace_mask(const std::string& spec) {
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string name = spec.substr(pos, comma - pos);
    if (name == "all") {
      mask = kTraceAll;
    } else {
      std::size_t s = 0;
      while (s < causal::kSegmentCount &&
             name != causal::to_string(static_cast<causal::Segment>(s))) {
        ++s;
      }
      if (s == causal::kSegmentCount) return std::nullopt;  // unknown or empty element
      mask |= trace_bit(static_cast<causal::Segment>(s));
    }
    pos = comma + 1;
  }
  return mask;
}

const char* trace_mask_names() {
  return "host,sdma,send,wire,switch,recv,firmware,rdma,rep,all";
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

// --- Chrome trace -----------------------------------------------------------------

namespace {

using causal::Span;
using causal::SpanId;
using causal::Unit;

/// Track order: every node's host, four engines, PCI bus and fault track
/// together, then the switches, then the links.
std::uint64_t track_key(const Unit& u) {
  const auto node_track = [&u](std::uint64_t rank) {
    return (static_cast<std::uint64_t>(u.id) << 3) | rank;
  };
  switch (u.kind) {
    case Unit::Kind::kHost: return node_track(0);
    case Unit::Kind::kEngine: return node_track(1 + u.sub);
    case Unit::Kind::kPci: return node_track(5);
    case Unit::Kind::kNic: return node_track(6);
    case Unit::Kind::kSwitch: return (std::uint64_t{1} << 40) | u.id;
    case Unit::Kind::kLink: return (std::uint64_t{2} << 40) | u.id;
  }
  return 0;
}

std::string track_name(const Unit& u, const std::vector<TraceLink>& links) {
  static constexpr const char* kEngines[] = {"sdma", "send", "recv", "rdma"};
  const std::string id = std::to_string(u.id);
  switch (u.kind) {
    case Unit::Kind::kHost: return "node" + id + "/host";
    case Unit::Kind::kEngine: return "nic" + id + "/" + kEngines[u.sub & 3];
    case Unit::Kind::kPci: return "node" + id + "/pci";
    case Unit::Kind::kNic: return "nic" + id + "/fault";
    case Unit::Kind::kSwitch: return "switch/sw" + id;
    case Unit::Kind::kLink:
      return "link/" + (u.id < links.size() ? links[u.id].name : "l" + id);
  }
  return "?";
}

double us(std::int64_t ps) { return static_cast<double>(ps) * 1e-6; }

}  // namespace

void write_chrome_trace(std::ostream& os, const causal::CausalTracer& tracer,
                        const std::vector<TraceLink>& links, std::uint32_t mask) {
  const auto shown = [mask](const Span* s) {
    return s != nullptr && (mask & trace_bit(s->seg)) != 0;
  };
  const SpanId n = tracer.span_count();

  // Tracks: one per unit with a shown span, numbered in track_key order.
  std::map<std::uint64_t, int> tid;
  std::map<std::uint64_t, Unit> units;
  for (SpanId id = 1; id <= n; ++id) {
    const Span* s = tracer.span(id);
    if (shown(s)) units.emplace(track_key(s->unit), s->unit);
  }
  os << "{\"traceEvents\": [\n";
  bool first = true;
  const auto next = [&os, &first] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& [key, unit] : units) {
    const int t = static_cast<int>(tid.size());
    tid.emplace(key, t);
    next();
    os << "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": " << t
       << ", \"args\": {\"name\": \"" << json_escape(track_name(unit, links)) << "\"}}";
  }

  char buf[320];
  std::uint64_t flow = 0;
  for (SpanId id = 1; id <= n; ++id) {
    const Span* s = tracer.span(id);
    if (!shown(s)) continue;
    const int t = tid.at(track_key(s->unit));
    const char* cat = causal::to_string(s->seg);
    std::int64_t dur = (s->end - s->start).ps();
    if (s->unit.kind == Unit::Kind::kLink && s->unit.sub != 0 && s->unit.id < links.size()) {
      dur -= links[s->unit.id].propagation.ps();  // show the wire-busy part only
    }
    char args[96];
    if (s->key != 0) {
      std::snprintf(args, sizeof args, "{\"id\": %" PRIu64 ", \"packet\": %" PRIu64 "}",
                    s->id, s->key);
    } else {
      std::snprintf(args, sizeof args, "{\"id\": %" PRIu64 "}", s->id);
    }
    if (s->end == s->start) {
      std::snprintf(buf, sizeof buf,
                    "  {\"ph\": \"i\", \"name\": \"%s\", \"cat\": \"%s\", \"pid\": 0, "
                    "\"tid\": %d, \"ts\": %.3f, \"s\": \"t\", \"args\": %s}",
                    s->label, cat, t, us(s->start.ps()), args);
    } else {
      std::snprintf(buf, sizeof buf,
                    "  {\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", \"pid\": 0, "
                    "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": %s}",
                    s->label, cat, t, us(s->start.ps()), us(dur), args);
    }
    next();
    os << buf;
    // Arrows: each edge into this span from a span on another track.
    for (const SpanId p : s->parents) {
      const Span* ps = tracer.span(p);
      if (!shown(ps)) continue;
      const int pt = tid.at(track_key(ps->unit));
      if (pt == t) continue;
      ++flow;
      std::snprintf(buf, sizeof buf,
                    "  {\"ph\": \"s\", \"name\": \"causal\", \"cat\": \"flow\", "
                    "\"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"id\": %" PRIu64 "},\n"
                    "  {\"ph\": \"f\", \"bp\": \"e\", \"name\": \"causal\", \"cat\": "
                    "\"flow\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"id\": %" PRIu64 "}",
                    pt, us(ps->start.ps()), flow, t, us(s->start.ps()), flow);
      next();
      os << buf;
    }
  }
  os << "\n]}\n";
}

// --- Telemetry ------------------------------------------------------------------

Telemetry::Telemetry() = default;
Telemetry::~Telemetry() = default;

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
