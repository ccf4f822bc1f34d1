// Simulation telemetry: metrics registry and Chrome trace-event export.
//
//   MetricsRegistry    — named counters, gauges, and Histogram-backed timers.
//                        Hardware models register their counters at snapshot
//                        time; benches and tools serialise it as JSON.
//   write_chrome_trace — renders the causal span arena (sim/causal.hpp) as a
//                        Chrome trace-event file, one track per unit (host
//                        CPU, MCP engine, PCI bus, link, switch), loadable in
//                        Perfetto or chrome://tracing. The trace is a view of
//                        the causal record, so it needs no hooks of its own
//                        and is byte-identical at any PDES worker count.
//
// Telemetry bundles the registry with the causal span tracer, whose
// critical-path profile is also the source of the Eq. 1-2 cost breakdown; a
// Cluster attaches the bundle to every hardware model it builds. Hardware
// models hold a raw tracer pointer that is null by default, so a detached
// hook costs one branch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/causal.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace nicbar::sim {

/// The --trace-mask bit of one causal segment; kTraceAll passes them all.
constexpr std::uint32_t trace_bit(causal::Segment s) {
  return 1u << static_cast<unsigned>(s);
}
inline constexpr std::uint32_t kTraceAll = 0xffffffffu;

/// Parses a comma-separated segment list ("recv,wire,switch" or "all") into
/// a trace_bit mask. Names are the causal::Segment names, case-sensitive;
/// empty elements are rejected. Returns nullopt on any unknown name.
[[nodiscard]] std::optional<std::uint32_t> parse_trace_mask(const std::string& spec);

/// The accepted names for parse_trace_mask, for help text and error messages.
[[nodiscard]] const char* trace_mask_names();

}  // namespace nicbar::sim

namespace nicbar::sim::telemetry {

// --- MetricsRegistry ----------------------------------------------------------

/// Named counters (monotonic uint64), gauges (double), and histogram-backed
/// timers. Names are hierarchical dotted paths ("nic0.engine.sdma.jobs").
/// Storage is a std::map so JSON output is deterministically ordered and
/// references returned by the accessors stay stable.
class MetricsRegistry {
 public:
  /// Returns the counter named `name`, creating it at zero on first use.
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }

  /// Returns the gauge named `name`, creating it at zero on first use.
  double& gauge(const std::string& name) { return gauges_[name]; }

  /// Returns the histogram named `name`, creating it with the given range on
  /// first use (later calls ignore the range arguments).
  Histogram& histogram(const std::string& name, double lo = 0.0, double hi = 1000.0,
                       std::size_t bins = 100);

  /// Lookup without creation; nullptr if absent.
  [[nodiscard]] const std::uint64_t* find_counter(const std::string& name) const;
  [[nodiscard]] const double* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  void clear();

  /// Serialises every metric as one JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
  ///    "p50":..,"p90":..,"p99":..},...}}
  void write_json(std::ostream& os) const;

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges() const { return gauges_; }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// --- Chrome trace -----------------------------------------------------------------

/// One fabric link as the Chrome trace shows it; a link's uid indexes the
/// table. "wire" spans run on through the propagation delay, which the
/// trace trims so each link track shows only the time the wire was busy.
struct TraceLink {
  std::string name;
  Duration propagation{0};
};

/// Writes the span arena of `tracer` as {"traceEvents":[...]}:
///   - a thread_name "M" row per unit that has a span passing `mask`;
///   - one "X" event per span (name = label, cat = segment, args.id = span
///     id, args.packet = the packet id of wire and switch spans), or an "i"
///     event when the span has zero length;
///   - an "s"/"f" flow pair per parent edge between spans on different
///     tracks, flow ids numbered in span order.
/// Timestamps are microseconds of simulated time. Call canonicalize() first
/// so the ids — and the file — do not depend on the engine's worker count.
void write_chrome_trace(std::ostream& os, const causal::CausalTracer& tracer,
                        const std::vector<TraceLink>& links, std::uint32_t mask = kTraceAll);

// --- Bundle ---------------------------------------------------------------------

/// What a Cluster hands to its hardware models. The metrics registry is
/// always present (filling it is a snapshot-time operation, not a hot-path
/// one); the causal tracer is created on demand so models can cache the raw
/// pointer and keep the disabled path to one branch.
class Telemetry {
 public:
  Telemetry();
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  causal::CausalTracer& enable_causal();
  [[nodiscard]] causal::CausalTracer* causal() const { return causal_.get(); }

  /// The fabric's links by uid, for write_chrome_trace; a Cluster fills it
  /// when it attaches a bundle with causal tracing on.
  [[nodiscard]] std::vector<TraceLink>& trace_links() { return trace_links_; }
  [[nodiscard]] const std::vector<TraceLink>& trace_links() const { return trace_links_; }

 private:
  MetricsRegistry metrics_;
  std::unique_ptr<causal::CausalTracer> causal_;
  std::vector<TraceLink> trace_links_;
};

/// Escapes `s` for inclusion in a JSON string literal (quotes, backslashes,
/// and control characters).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace nicbar::sim::telemetry
