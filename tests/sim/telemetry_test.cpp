// Telemetry layer: metrics registry, trace-event sink and its category
// mask, the Eq. 1-2 cost rows derived from the critical path, and the
// end-to-end wiring through a real NIC-barrier experiment.
#include "sim/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <optional>
#include <sstream>
#include <string>

#include "coll/runner.hpp"
#include "host/cluster.hpp"
#include "sim/causal.hpp"

namespace nicbar {
namespace {

using sim::TraceCategory;
using sim::causal::CostRows;
using sim::causal::PathProfile;
using sim::causal::Segment;
using sim::telemetry::MetricsRegistry;
using sim::telemetry::Telemetry;
using sim::telemetry::TraceEventSink;

// --- A minimal JSON validity checker -------------------------------------------
//
// Enough of a recursive-descent parser to reject structurally broken output
// (unbalanced braces, missing commas, bad string escapes, malformed numbers).

struct JsonChecker {
  const std::string& s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r')) ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool string() {
    ws();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
      }
      ++i;
    }
    return eat('"');
  }
  bool number() {
    ws();
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) != 0 || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '-' || s[i] == '+')) {
      ++i;
    }
    return i > start;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    if (s[i] == '{') return object();
    if (s[i] == '[') return array();
    if (s[i] == '"') return string();
    if (s.compare(i, 4, "true") == 0) return i += 4, true;
    if (s.compare(i, 5, "false") == 0) return i += 5, true;
    if (s.compare(i, 4, "null") == 0) return i += 4, true;
    return number();
  }
  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    do {
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
  bool document() {
    if (!value()) return false;
    ws();
    return i == s.size();
  }
};

bool valid_json(const std::string& s) {
  JsonChecker c{s};
  return c.document();
}

// --- MetricsRegistry -----------------------------------------------------------

TEST(MetricsRegistryTest, CounterRegistrationAndLookup) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find_counter("nic0.acks_sent"), nullptr);

  m.counter("nic0.acks_sent") += 3;
  m.counter("nic0.acks_sent") += 2;
  ASSERT_NE(m.find_counter("nic0.acks_sent"), nullptr);
  EXPECT_EQ(*m.find_counter("nic0.acks_sent"), 5u);
  EXPECT_EQ(m.size(), 1u);

  m.gauge("pci.utilisation") = 0.25;
  ASSERT_NE(m.find_gauge("pci.utilisation"), nullptr);
  EXPECT_DOUBLE_EQ(*m.find_gauge("pci.utilisation"), 0.25);

  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find_counter("nic0.acks_sent"), nullptr);
}

TEST(MetricsRegistryTest, HistogramKeepsFirstRange) {
  MetricsRegistry m;
  sim::Histogram& h = m.histogram("latency_us", 0.0, 200.0, 20);
  h.add(101.0);
  // Second call with different bounds must return the same histogram.
  sim::Histogram& again = m.histogram("latency_us", 0.0, 5.0, 2);
  EXPECT_EQ(&h, &again);
  EXPECT_DOUBLE_EQ(again.hi(), 200.0);
  EXPECT_EQ(again.count(), 1u);
}

TEST(MetricsRegistryTest, WriteJsonIsValidAndComplete) {
  MetricsRegistry m;
  m.counter("a.count") = 7;
  m.gauge("b.util") = 0.5;
  m.histogram("c.lat", 0.0, 10.0, 10).add(4.0);
  std::ostringstream os;
  m.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"a.count\": 7"), std::string::npos);
  EXPECT_NE(json.find("b.util"), std::string::npos);
  EXPECT_NE(json.find("c.lat"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonEscapesSpecialCharacters) {
  EXPECT_EQ(sim::telemetry::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// --- TraceEventSink ------------------------------------------------------------

TEST(TraceEventSinkTest, TracksAreStableAndDeduplicated) {
  TraceEventSink t;
  const int a = t.track("nic0/sdma");
  const int b = t.track("nic0/send");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.track("nic0/sdma"), a);
  EXPECT_EQ(t.track_count(), 2u);
}

TEST(TraceEventSinkTest, RecordsDurationAndInstantEvents) {
  TraceEventSink t;
  const int a = t.track("link/x");
  const int b = t.track("link/y");
  t.duration(a, "tx", sim::SimTime{1000}, sim::Duration{500}, "net");
  t.duration(a, "tx", sim::SimTime{2000}, sim::Duration{500}, "net");
  t.instant(b, "drop", sim::SimTime{3000});
  EXPECT_EQ(t.event_count(), 3u);
  EXPECT_EQ(t.events_on(a), 2u);
  EXPECT_EQ(t.events_on(b), 1u);
}

TEST(TraceEventSinkTest, WriteJsonIsValidChromeTraceFormat) {
  TraceEventSink t;
  const int a = t.track("nic0/sdma");
  t.duration(a, "detect+setup", sim::SimTime{0} + sim::microseconds(1.5),
             sim::microseconds(2.0));
  t.instant(a, "fire", sim::SimTime{0} + sim::microseconds(9.0));
  std::ostringstream os;
  t.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);  // thread_name metadata
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  // ts is microseconds of simulated time.
  EXPECT_NE(json.find("\"ts\": 1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2.000"), std::string::npos);
}

TEST(TraceEventSinkTest, MaskFiltersAtEmissionTime) {
  TraceEventSink t;
  t.set_mask(static_cast<std::uint32_t>(sim::TraceCategory::kRdma));
  const int a = t.track("mcp0");
  t.duration(a, "keep", sim::SimTime{1000}, sim::Duration{500}, "sim",
             sim::TraceCategory::kRdma);
  t.duration(a, "drop", sim::SimTime{2000}, sim::Duration{500}, "sim",
             sim::TraceCategory::kNet);
  t.instant(a, "drop", sim::SimTime{3000}, "sim", sim::TraceCategory::kSdma);
  t.flow_start(a, "drop", sim::SimTime{4000}, 9, "sim", sim::TraceCategory::kSend);
  EXPECT_EQ(t.event_count(), 1u);
  t.set_mask(static_cast<std::uint32_t>(sim::TraceCategory::kAll));
  t.flow_end(a, "keep", sim::SimTime{5000}, 9);
  EXPECT_EQ(t.event_count(), 2u);
}

TEST(TraceEventSinkTest, GoldenJsonPinsFlowEventsAndCausalIds) {
  // Pins the exact Chrome-trace serialisation of the three id-carrying event
  // shapes: an "X" with args.id, and an "s"/"f" flow pair bound by the same
  // packet id ("bp": "e" attaches the arrowhead to the enclosing slice).
  // Perfetto renders the pair as an arrow following the packet from the
  // sender's SEND engine to the receiver's RECV engine — byte-for-byte
  // changes here break saved traces and the flow-arrow rendering.
  TraceEventSink t;
  const int tx = t.track("nic0/send");
  const int rx = t.track("nic1/recv");
  t.duration(tx, "tx", sim::SimTime{0} + sim::microseconds(1.0), sim::microseconds(2.0),
             "nic", sim::TraceCategory::kSend, 7);
  t.flow_start(tx, "pkt", sim::SimTime{0} + sim::microseconds(3.0), 7, "net",
               sim::TraceCategory::kNet);
  t.flow_end(rx, "pkt", sim::SimTime{0} + sim::microseconds(4.5), 7, "net",
             sim::TraceCategory::kNet);
  t.duration(rx, "rx", sim::SimTime{0} + sim::microseconds(4.5), sim::microseconds(1.0),
             "nic", sim::TraceCategory::kRecv);  // id 0: no args block
  std::ostringstream os;
  t.write_json(os);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\": [\n"
            "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": 0, "
            "\"args\": {\"name\": \"nic0/send\"}},\n"
            "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": 1, "
            "\"args\": {\"name\": \"nic1/recv\"}},\n"
            "  {\"ph\": \"X\", \"name\": \"tx\", \"cat\": \"nic\", \"pid\": 0, \"tid\": 0, "
            "\"ts\": 1.000, \"dur\": 2.000, \"args\": {\"id\": 7}},\n"
            "  {\"ph\": \"s\", \"name\": \"pkt\", \"cat\": \"net\", \"pid\": 0, \"tid\": 0, "
            "\"ts\": 3.000, \"id\": 7},\n"
            "  {\"ph\": \"f\", \"bp\": \"e\", \"name\": \"pkt\", \"cat\": \"net\", \"pid\": 0, "
            "\"tid\": 1, \"ts\": 4.500, \"id\": 7},\n"
            "  {\"ph\": \"X\", \"name\": \"rx\", \"cat\": \"nic\", \"pid\": 0, \"tid\": 1, "
            "\"ts\": 4.500, \"dur\": 1.000}\n"
            "]}\n");
}

// --- Trace-category mask parser ---------------------------------------------------

TEST(TraceMaskTest, ParsesSingleNamesAndLists) {
  EXPECT_EQ(sim::parse_trace_mask("sdma"),
            std::optional<std::uint32_t>(static_cast<std::uint32_t>(TraceCategory::kSdma)));
  EXPECT_EQ(sim::parse_trace_mask("recv,net"),
            std::optional<std::uint32_t>(static_cast<std::uint32_t>(TraceCategory::kRecv) |
                                         static_cast<std::uint32_t>(TraceCategory::kNet)));
  EXPECT_EQ(sim::parse_trace_mask("all"),
            std::optional<std::uint32_t>(static_cast<std::uint32_t>(TraceCategory::kAll)));
  // Every documented name parses to exactly one bit (or kAll).
  for (const char* name : {"sdma", "send", "recv", "rdma", "net"}) {
    const auto m = sim::parse_trace_mask(name);
    ASSERT_TRUE(m.has_value()) << name;
    EXPECT_EQ(__builtin_popcount(*m), 1) << name;
  }
}

TEST(TraceMaskTest, RejectsUnknownAndEmptyElements) {
  EXPECT_FALSE(sim::parse_trace_mask("").has_value());
  EXPECT_FALSE(sim::parse_trace_mask("bogus").has_value());
  EXPECT_FALSE(sim::parse_trace_mask("net,").has_value());
  EXPECT_FALSE(sim::parse_trace_mask(",net").has_value());
  EXPECT_FALSE(sim::parse_trace_mask("sdma,,net").has_value());
  EXPECT_FALSE(sim::parse_trace_mask("Net").has_value());  // case-sensitive
  // Categories nothing emits are not accepted: masking on one would
  // silently write an empty trace.
  for (const char* name : {"host", "barrier", "reliab"}) {
    EXPECT_FALSE(sim::parse_trace_mask(name).has_value()) << name;
  }
  // The error-message helper names every accepted category.
  const std::string names = sim::trace_mask_names();
  for (const char* name : {"sdma", "send", "recv", "rdma", "net", "all"}) {
    EXPECT_NE(names.find(name), std::string::npos) << name;
  }
}

// --- Eq. 1-2 cost rows ------------------------------------------------------------

/// A profile with a distinct duration in every segment's self and queue
/// slot, so a segment counted twice or dropped shows in the sums.
PathProfile synthetic_profile(std::uint64_t barriers) {
  PathProfile p;
  p.barriers = barriers;
  for (std::size_t s = 0; s < sim::causal::kSegmentCount; ++s) {
    p.self[s] = sim::Duration{static_cast<std::int64_t>(1000 * (s + 1) + 7)};
    p.queue[s] = sim::Duration{static_cast<std::int64_t>(10 * (s + 1) + 3)};
    p.total += p.self[s] + p.queue[s];
  }
  return p;
}

TEST(BreakdownRowsTest, RowsSumToTotalExactly) {
  const PathProfile p = synthetic_profile(1);
  const auto self = [&p](Segment s) { return p.self[static_cast<std::size_t>(s)]; };
  const CostRows r = sim::causal::cost_rows(p);
  EXPECT_EQ(r.barriers, 1u);
  EXPECT_EQ(r.host, self(Segment::kHost));
  EXPECT_EQ(r.nic, self(Segment::kSdma) + self(Segment::kSend) + self(Segment::kRecv) +
                       self(Segment::kFirmware) + self(Segment::kRep));
  EXPECT_EQ(r.rdma, self(Segment::kRdma));
  EXPECT_EQ(r.wire, self(Segment::kWire) + self(Segment::kSwitch));
  sim::Duration queue{0};
  for (const sim::Duration q : p.queue) queue += q;
  EXPECT_EQ(r.queue, queue);
  EXPECT_EQ(r.total, p.total);
  EXPECT_EQ(r.sum().ps(), r.total.ps());  // no residual: exact in integer ps
}

TEST(BreakdownRowsTest, EmptyProfileHasNoBarriersAndZeroRows) {
  const CostRows r = sim::causal::cost_rows(PathProfile{});
  EXPECT_EQ(r.barriers, 0u);
  EXPECT_EQ(r.sum().ps(), 0);
  EXPECT_EQ(r.total.ps(), 0);
  EXPECT_DOUBLE_EQ(r.mean_us(r.total), 0.0);  // no division by zero
}

TEST(BreakdownRowsTest, MeansOverManyBarriersKeepTheSumExact) {
  const CostRows r = sim::causal::cost_rows(synthetic_profile(3));
  EXPECT_EQ(r.barriers, 3u);
  EXPECT_EQ(r.sum(), r.total);
  EXPECT_DOUBLE_EQ(r.mean_us(r.total), r.total.us() / 3.0);
  EXPECT_NEAR(r.mean_us(r.host) + r.mean_us(r.nic) + r.mean_us(r.rdma) + r.mean_us(r.wire) +
                  r.mean_us(r.queue),
              r.mean_us(r.total), 1e-12);
}

TEST(BreakdownRowsTest, SnapshotExportsTheRowsAsGauges) {
  const CostRows r = sim::causal::cost_rows(synthetic_profile(2));
  MetricsRegistry m;
  r.snapshot(m);
  ASSERT_NE(m.find_counter("breakdown.barriers"), nullptr);
  EXPECT_EQ(*m.find_counter("breakdown.barriers"), 2u);
  const std::pair<const char*, sim::Duration> rows[] = {
      {"breakdown.host_us", r.host}, {"breakdown.nic_us", r.nic},
      {"breakdown.rdma_us", r.rdma}, {"breakdown.wire_us", r.wire},
      {"breakdown.queue_us", r.queue}, {"breakdown.total_us", r.total}};
  for (const auto& [name, d] : rows) {
    ASSERT_NE(m.find_gauge(name), nullptr) << name;
    EXPECT_DOUBLE_EQ(*m.find_gauge(name), r.mean_us(d)) << name;
  }
}

// --- End-to-end: a real NIC barrier with the bundle attached ---------------------

coll::ExperimentParams instrumented_params(Telemetry& telemetry, int reps) {
  coll::ExperimentParams p;
  p.nodes = 4;
  p.reps = reps;
  p.spec.location = coll::Location::kNic;
  p.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
  p.cluster.telemetry = &telemetry;
  return p;
}

TEST(TelemetryIntegrationTest, CountersAreRegisteredAndMonotonic) {
  Telemetry t1, t3;
  (void)coll::run_barrier_experiment(instrumented_params(t1, 1));
  (void)coll::run_barrier_experiment(instrumented_params(t3, 3));

  for (Telemetry* t : {&t1, &t3}) {
    const auto* completed = t->metrics().find_counter("nic0.barriers_completed");
    ASSERT_NE(completed, nullptr);
    ASSERT_NE(t->metrics().find_counter("nic0.engine.sdma.cycles"), nullptr);
    ASSERT_NE(t->metrics().find_counter("node0.pci.jobs"), nullptr);
    ASSERT_NE(t->metrics().find_gauge("nic0.proc.utilisation"), nullptr);
  }
  // More barriers -> strictly more of everything barrier-related.
  EXPECT_EQ(*t1.metrics().find_counter("nic0.barriers_completed"), 1u);
  EXPECT_EQ(*t3.metrics().find_counter("nic0.barriers_completed"), 3u);
  EXPECT_GT(*t3.metrics().find_counter("nic0.barrier_packets_sent"),
            *t1.metrics().find_counter("nic0.barrier_packets_sent"));
  EXPECT_GT(*t3.metrics().find_counter("nic0.engine.rdma.cycles"),
            *t1.metrics().find_counter("nic0.engine.rdma.cycles"));
  EXPECT_GT(*t3.metrics().find_counter("nic0.barrier_pe_rounds"),
            *t1.metrics().find_counter("nic0.barrier_pe_rounds"));
}

TEST(TelemetryIntegrationTest, EngineCyclesCoverProcessorBusyTime) {
  Telemetry t;
  (void)coll::run_barrier_experiment(instrumented_params(t, 5));
  // Every firmware job is attributed to exactly one engine, so the per-engine
  // cycle counters must sum to the processor's total busy time.
  for (int n = 0; n < 4; ++n) {
    const std::string pfx = "nic" + std::to_string(n) + ".";
    std::uint64_t engine_cycles = 0;
    for (const char* e : {"sdma", "send", "recv", "rdma"}) {
      const auto* c = t.metrics().find_counter(pfx + "engine." + e + ".cycles");
      ASSERT_NE(c, nullptr);
      engine_cycles += *c;
    }
    const auto* busy_ps = t.metrics().find_counter(pfx + "proc.busy_ps");
    ASSERT_NE(busy_ps, nullptr);
    // 33 MHz: one cycle is 30303 ps.
    const double busy_cycles = static_cast<double>(*busy_ps) / 30303.0;
    EXPECT_NEAR(static_cast<double>(engine_cycles), busy_cycles,
                0.01 * busy_cycles + 1.0);
  }
}

TEST(TelemetryIntegrationTest, BreakdownTermsSumWithinOneNanosecond) {
  Telemetry t;
  t.enable_causal();
  const int reps = 4;
  coll::ExperimentParams p = instrumented_params(t, reps);
  const coll::ExperimentResult r = coll::run_barrier_experiment(p);

  const CostRows rows = sim::causal::cost_rows(t.causal()->profile());
  EXPECT_EQ(rows.barriers, p.nodes * static_cast<std::uint64_t>(reps));
  EXPECT_GT(rows.host.ps(), 0);
  EXPECT_GT(rows.nic.ps(), 0);
  EXPECT_GT(rows.rdma.ps(), 0);
  EXPECT_GT(rows.wire.ps(), 0);
  // Exactly, not just within the 1 ns of the name: the rows have no residual.
  EXPECT_EQ(rows.sum().ps(), rows.total.ps());
  // The per-member barrier latency must be in the same regime as the
  // experiment's reported mean (they measure slightly different intervals).
  EXPECT_NEAR(rows.mean_us(rows.total), r.mean_us, 0.25 * r.mean_us);
}

TEST(TelemetryIntegrationTest, HostBarrierRunHasNoBreakdownRows) {
  // Host-based barriers are ordinary message loops: no completion event,
  // so no critical path and no rows.
  Telemetry t;
  t.enable_causal();
  coll::ExperimentParams p = instrumented_params(t, 3);
  p.spec.location = coll::Location::kHost;
  (void)coll::run_barrier_experiment(p);
  const CostRows rows = sim::causal::cost_rows(t.causal()->profile());
  EXPECT_EQ(rows.barriers, 0u);
  EXPECT_EQ(rows.sum().ps(), 0);
}

TEST(TelemetryIntegrationTest, Fig5NicPe16LanaiRowsArePinnedInPicoseconds) {
  // Golden: the paper's 16-node NIC-PE point on LANai 4.3, contention-free,
  // so every member-barrier has the same critical path and the rows are
  // 160 times the per-barrier Eq. 1-2 terms.
  Telemetry t;
  t.enable_causal();
  coll::ExperimentParams p;
  p.nodes = 16;
  p.reps = 10;
  p.spec.location = coll::Location::kNic;
  p.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
  p.cluster.nic = nic::lanai43();
  p.cluster.telemetry = &t;
  (void)coll::run_barrier_experiment(p);
  const CostRows rows = sim::causal::cost_rows(t.causal()->profile());
  EXPECT_EQ(rows.barriers, 160u);
  EXPECT_EQ(rows.host.ps(), 1'280'000'000);
  EXPECT_EQ(rows.nic.ps(), 13'430'301'600);
  EXPECT_EQ(rows.rdma.ps(), 881'939'360);
  EXPECT_EQ(rows.wire.ps(), 520'000'000);
  EXPECT_EQ(rows.queue.ps(), 0);
  EXPECT_EQ(rows.total.ps(), 16'112'240'960);
}

TEST(TelemetryIntegrationTest, TraceHasSpansPerEnginePerBarrierRound) {
  Telemetry t;
  TraceEventSink& sink = t.enable_trace();
  const int reps = 3;
  (void)coll::run_barrier_experiment(instrumented_params(t, reps));

  // One track per NIC engine, each with at least one span per barrier round.
  for (int n = 0; n < 4; ++n) {
    for (const char* e : {"sdma", "send", "recv", "rdma"}) {
      const std::string name = "nic" + std::to_string(n) + "/" + e;
      const int id = sink.track(name);  // finds the existing track
      EXPECT_GE(sink.events_on(id), static_cast<std::size_t>(reps)) << name;
    }
  }
  // Links got their own tracks too (4 terminals on one switch = 8 links).
  std::size_t link_tracks = 0;
  for (const std::string& name : sink.track_names()) {
    if (name.rfind("link/", 0) == 0) ++link_tracks;
  }
  EXPECT_EQ(link_tracks, 8u);

  std::ostringstream os;
  sink.write_json(os);
  EXPECT_TRUE(valid_json(os.str()));
}

TEST(TelemetryIntegrationTest, TraceMaskFiltersEndToEnd) {
  // The same experiment traced twice: unfiltered, and restricted to the
  // receive-engine category. The mask must thin the event stream at the sink
  // (no call-site changes), and the full stream must carry the paired flow
  // events that follow each packet across tracks.
  coll::ExperimentParams p;
  p.nodes = 4;
  p.reps = 3;
  p.spec.location = coll::Location::kNic;

  Telemetry full;
  full.enable_trace();
  p.cluster.telemetry = &full;
  (void)coll::run_barrier_experiment(p);

  Telemetry masked;
  masked.enable_trace().set_mask(static_cast<std::uint32_t>(sim::TraceCategory::kRecv));
  coll::ExperimentParams p2 = p;
  p2.cluster.telemetry = &masked;
  (void)coll::run_barrier_experiment(p2);

  EXPECT_GT(masked.trace()->event_count(), 0u);
  EXPECT_LT(masked.trace()->event_count(), full.trace()->event_count());

  // Every event carries exactly one emitted category (the NIC engines,
  // PCI as rdma, and the links), so the single-category streams partition
  // the full one and none of them is empty.
  std::size_t partitioned = 0;
  for (const TraceCategory c : {TraceCategory::kSdma, TraceCategory::kSend,
                                TraceCategory::kRecv, TraceCategory::kRdma,
                                TraceCategory::kNet}) {
    Telemetry one;
    one.enable_trace().set_mask(static_cast<std::uint32_t>(c));
    coll::ExperimentParams p3 = p;
    p3.cluster.telemetry = &one;
    (void)coll::run_barrier_experiment(p3);
    EXPECT_GT(one.trace()->event_count(), 0u) << static_cast<std::uint32_t>(c);
    partitioned += one.trace()->event_count();
  }
  EXPECT_EQ(partitioned, full.trace()->event_count());

  std::ostringstream os;
  full.trace()->write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"id\": "), std::string::npos);

  std::ostringstream os2;
  masked.trace()->write_json(os2);
  EXPECT_TRUE(valid_json(os2.str()));
}

TEST(TelemetryIntegrationTest, DetachedTelemetryKeepsTimelineIdentical) {
  // The zero-cost discipline, observed end to end: attaching the full bundle
  // must not change any simulated timestamp.
  coll::ExperimentParams plain;
  plain.nodes = 4;
  plain.reps = 3;
  plain.spec.location = coll::Location::kNic;
  const double bare_us = coll::run_barrier_experiment(plain).mean_us;

  Telemetry t;
  t.enable_trace();
  t.enable_causal();
  coll::ExperimentParams wired = plain;
  wired.cluster.telemetry = &t;
  const double wired_us = coll::run_barrier_experiment(wired).mean_us;

  EXPECT_DOUBLE_EQ(bare_us, wired_us);
}

}  // namespace
}  // namespace nicbar
