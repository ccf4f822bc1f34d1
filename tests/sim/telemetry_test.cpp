// Telemetry layer: metrics registry, the Chrome trace written from the
// causal span arena and its segment mask, the Eq. 1-2 cost rows derived
// from the critical path, and the end-to-end wiring through a real
// NIC-barrier experiment.
#include "sim/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "coll/reduce.hpp"
#include "coll/runner.hpp"
#include "host/cluster.hpp"
#include "rma/domain.hpp"
#include "sim/causal.hpp"

namespace nicbar {
namespace {

using sim::Duration;
using sim::SimTime;
using sim::causal::CausalTracer;
using sim::causal::CostRows;
using sim::causal::PathProfile;
using sim::causal::Segment;
using sim::causal::SpanId;
using sim::causal::Unit;
using sim::telemetry::MetricsRegistry;
using sim::telemetry::Telemetry;
using sim::telemetry::TraceLink;

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

// --- Chrome trace over the span arena -----------------------------------------

SimTime at_us(double us) { return SimTime{0} + sim::microseconds(us); }

/// A barrier message's journey: host post and SEND on node 0, one wire hop
/// (packet 7) whose 0.5 us propagation the trace trims, RECV on node 1, and
/// a zero-length firmware join.
CausalTracer journey(std::vector<TraceLink>& links) {
  links = {{"t0->sw0", sim::microseconds(0.5)}};
  CausalTracer c;
  const SpanId post =
      c.record(Segment::kHost, 0, Unit::host(0), "barrier_post", at_us(0), at_us(1));
  const SpanId tx =
      c.record(Segment::kSend, 0, Unit::engine(0, 1), "tx", at_us(1), at_us(2), post);
  const SpanId wire = c.record(Segment::kWire, 1, Unit::link(0, true), "wire", at_us(2),
                               at_us(3.5), tx, 0, 7);
  const SpanId rx = c.record(Segment::kRecv, 1, Unit::engine(1, 2), "rx_barrier", at_us(3.5),
                             at_us(4.5), wire);
  c.record(Segment::kFirmware, 1, Unit::engine(1, 3), "gather_ready", at_us(4.5), at_us(4.5),
           rx);
  return c;
}

std::string chrome_trace(const CausalTracer& c, const std::vector<TraceLink>& links,
                         std::uint32_t mask = sim::kTraceAll) {
  std::ostringstream os;
  write_chrome_trace(os, c, links, mask);
  return os.str();
}

std::size_t count(const std::string& s, const std::string& what) {
  std::size_t n = 0;
  for (std::size_t pos = s.find(what); pos != std::string::npos; pos = s.find(what, pos + 1)) {
    ++n;
  }
  return n;
}

TEST(ChromeTraceTest, OneTrackPerUnitNamedAsBefore) {
  // Tracks keep the names the Chrome trace always had (nicN/<engine>,
  // nodeN/pci, nicN/fault, link/<name>) plus host and switch tracks; each
  // unit gets exactly one, however many spans it did.
  CausalTracer c;
  const std::vector<TraceLink> links = {{"t3->sw0", Duration{0}}};
  for (int i = 0; i < 3; ++i) {
    c.record(Segment::kSdma, 3, Unit::engine(3, 0), "sdma_detect", at_us(i), at_us(i + 0.5));
  }
  c.record(Segment::kRdma, 3, Unit::engine(3, 3), "rdma_setup", at_us(4), at_us(5));
  c.record(Segment::kRdma, 3, Unit::pci(3), "rdma_dma", at_us(5), at_us(6));
  c.record(Segment::kFirmware, 3, Unit::nic(3), "crash", at_us(7), at_us(7));
  c.record(Segment::kHost, 3, Unit::host(3), "host_recv", at_us(6), at_us(7));
  c.record(Segment::kSwitch, 3, Unit::sw(0), "route", at_us(1), at_us(2), 0, 0, 9);
  c.record(Segment::kWire, 3, Unit::link(0, false), "wire_drop", at_us(2), at_us(3), 0, 0, 9);
  const std::string json = chrome_trace(c, links);
  EXPECT_EQ(count(json, "\"thread_name\""), 7u);
  for (const char* name : {"node3/host", "nic3/sdma", "nic3/rdma", "node3/pci", "nic3/fault",
                           "switch/sw0", "link/t3->sw0"}) {
    EXPECT_EQ(count(json, std::string("{\"name\": \"") + name + "\"}"), 1u) << name;
  }
  // Node tracks come first, in host, engine, pci, fault order.
  EXPECT_LT(json.find("node3/host"), json.find("nic3/sdma"));
  EXPECT_LT(json.find("nic3/rdma"), json.find("node3/pci"));
  EXPECT_LT(json.find("nic3/fault"), json.find("switch/sw0"));
  EXPECT_LT(json.find("switch/sw0"), json.find("link/t3->sw0"));
}

TEST(ChromeTraceTest, SpansBecomeDurationAndInstantEvents) {
  std::vector<TraceLink> links;
  const std::string json = chrome_trace(journey(links), links);
  EXPECT_EQ(count(json, "\"ph\": \"X\""), 4u);
  EXPECT_EQ(count(json, "\"ph\": \"i\""), 1u);  // the zero-length join
  // Every parent edge crosses tracks here, so there are four arrows.
  EXPECT_EQ(count(json, "\"ph\": \"s\""), 4u);
  EXPECT_EQ(count(json, "\"ph\": \"f\""), 4u);
}

TEST(ChromeTraceTest, WriteJsonIsValidChromeTraceFormat) {
  std::vector<TraceLink> links;
  const std::string json = chrome_trace(journey(links), links);
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // ts is microseconds of simulated time; the link slice shows only the
  // 1 us the wire was busy, not the 0.5 us propagation behind it.
  EXPECT_NE(json.find("\"ts\": 3.500"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"wire\", \"cat\": \"wire\", \"pid\": 0, \"tid\": 4, "
                      "\"ts\": 2.000, \"dur\": 1.000"),
            std::string::npos)
      << json;
  // An empty arena is still a loadable file.
  EXPECT_TRUE(valid_json(chrome_trace(CausalTracer{}, {})));
}

TEST(ChromeTraceTest, MaskFiltersBySegmentAtWriteTime) {
  std::vector<TraceLink> links;
  const CausalTracer c = journey(links);
  const std::string recv = chrome_trace(c, links, sim::trace_bit(Segment::kRecv));
  EXPECT_EQ(count(recv, "\"ph\": \"X\""), 1u);
  EXPECT_EQ(count(recv, "\"thread_name\""), 1u);  // only the unit with a shown span
  EXPECT_EQ(count(recv, "\"ph\": \"s\""), 0u);   // an edge needs both ends shown
  const std::string net = chrome_trace(
      c, links, sim::trace_bit(Segment::kWire) | sim::trace_bit(Segment::kSend));
  EXPECT_EQ(count(net, "\"ph\": \"X\""), 2u);
  EXPECT_EQ(count(net, "\"ph\": \"s\""), 1u);  // tx -> wire
  EXPECT_TRUE(valid_json(net));
  EXPECT_EQ(count(chrome_trace(c, links, 0), "\"ph\""), 0u);
}

TEST(ChromeTraceTest, GoldenJsonPinsFlowEventsAndCausalIds) {
  // Pins the exact serialisation of every event shape: "M" track names, an
  // "X" per span with its span id (and packet id on the wire), an "i" for
  // the zero-length join, and an "s"/"f" flow pair per cross-track parent
  // edge ("bp": "e" attaches the arrowhead to the enclosing slice), flow
  // ids numbered in span order. Byte changes here break saved traces.
  std::vector<TraceLink> links;
  EXPECT_EQ(chrome_trace(journey(links), links),
            "{\"traceEvents\": [\n"
            "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": 0, "
            "\"args\": {\"name\": \"node0/host\"}},\n"
            "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": 1, "
            "\"args\": {\"name\": \"nic0/send\"}},\n"
            "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": 2, "
            "\"args\": {\"name\": \"nic1/recv\"}},\n"
            "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": 3, "
            "\"args\": {\"name\": \"nic1/rdma\"}},\n"
            "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": 4, "
            "\"args\": {\"name\": \"link/t0->sw0\"}},\n"
            "  {\"ph\": \"X\", \"name\": \"barrier_post\", \"cat\": \"host\", \"pid\": 0, "
            "\"tid\": 0, \"ts\": 0.000, \"dur\": 1.000, \"args\": {\"id\": 1}},\n"
            "  {\"ph\": \"X\", \"name\": \"tx\", \"cat\": \"send\", \"pid\": 0, \"tid\": 1, "
            "\"ts\": 1.000, \"dur\": 1.000, \"args\": {\"id\": 2}},\n"
            "  {\"ph\": \"s\", \"name\": \"causal\", \"cat\": \"flow\", \"pid\": 0, "
            "\"tid\": 0, \"ts\": 0.000, \"id\": 1},\n"
            "  {\"ph\": \"f\", \"bp\": \"e\", \"name\": \"causal\", \"cat\": \"flow\", "
            "\"pid\": 0, \"tid\": 1, \"ts\": 1.000, \"id\": 1},\n"
            "  {\"ph\": \"X\", \"name\": \"wire\", \"cat\": \"wire\", \"pid\": 0, "
            "\"tid\": 4, \"ts\": 2.000, \"dur\": 1.000, \"args\": {\"id\": 3, "
            "\"packet\": 7}},\n"
            "  {\"ph\": \"s\", \"name\": \"causal\", \"cat\": \"flow\", \"pid\": 0, "
            "\"tid\": 1, \"ts\": 1.000, \"id\": 2},\n"
            "  {\"ph\": \"f\", \"bp\": \"e\", \"name\": \"causal\", \"cat\": \"flow\", "
            "\"pid\": 0, \"tid\": 4, \"ts\": 2.000, \"id\": 2},\n"
            "  {\"ph\": \"X\", \"name\": \"rx_barrier\", \"cat\": \"recv\", \"pid\": 0, "
            "\"tid\": 2, \"ts\": 3.500, \"dur\": 1.000, \"args\": {\"id\": 4}},\n"
            "  {\"ph\": \"s\", \"name\": \"causal\", \"cat\": \"flow\", \"pid\": 0, "
            "\"tid\": 4, \"ts\": 2.000, \"id\": 3},\n"
            "  {\"ph\": \"f\", \"bp\": \"e\", \"name\": \"causal\", \"cat\": \"flow\", "
            "\"pid\": 0, \"tid\": 2, \"ts\": 3.500, \"id\": 3},\n"
            "  {\"ph\": \"i\", \"name\": \"gather_ready\", \"cat\": \"firmware\", "
            "\"pid\": 0, \"tid\": 3, \"ts\": 4.500, \"s\": \"t\", \"args\": {\"id\": 5}},\n"
            "  {\"ph\": \"s\", \"name\": \"causal\", \"cat\": \"flow\", \"pid\": 0, "
            "\"tid\": 2, \"ts\": 3.500, \"id\": 4},\n"
            "  {\"ph\": \"f\", \"bp\": \"e\", \"name\": \"causal\", \"cat\": \"flow\", "
            "\"pid\": 0, \"tid\": 3, \"ts\": 4.500, \"id\": 4}\n"
            "]}\n");
}

// --- Trace mask parser --------------------------------------------------------------

TEST(TraceMaskTest, ParsesSingleNamesAndLists) {
  EXPECT_EQ(sim::parse_trace_mask("sdma"),
            std::optional<std::uint32_t>(sim::trace_bit(Segment::kSdma)));
  EXPECT_EQ(sim::parse_trace_mask("recv,wire,switch"),
            std::optional<std::uint32_t>(sim::trace_bit(Segment::kRecv) |
                                         sim::trace_bit(Segment::kWire) |
                                         sim::trace_bit(Segment::kSwitch)));
  EXPECT_EQ(sim::parse_trace_mask("all"), std::optional<std::uint32_t>(sim::kTraceAll));
  // Every segment name parses to exactly its own bit.
  for (std::size_t s = 0; s < sim::causal::kSegmentCount; ++s) {
    const auto seg = static_cast<Segment>(s);
    EXPECT_EQ(sim::parse_trace_mask(sim::causal::to_string(seg)),
              std::optional<std::uint32_t>(sim::trace_bit(seg)))
        << sim::causal::to_string(seg);
  }
}

TEST(TraceMaskTest, RejectsUnknownAndEmptyElements) {
  EXPECT_FALSE(sim::parse_trace_mask("").has_value());
  EXPECT_FALSE(sim::parse_trace_mask("bogus").has_value());
  EXPECT_FALSE(sim::parse_trace_mask("wire,").has_value());
  EXPECT_FALSE(sim::parse_trace_mask(",wire").has_value());
  EXPECT_FALSE(sim::parse_trace_mask("sdma,,wire").has_value());
  EXPECT_FALSE(sim::parse_trace_mask("Wire").has_value());  // case-sensitive
  // Names that are not segments are not accepted: "net" is spelled
  // wire,switch now, and the old unemitted categories stay rejected.
  for (const char* name : {"net", "barrier", "reliab", "pci"}) {
    EXPECT_FALSE(sim::parse_trace_mask(name).has_value()) << name;
  }
  // The error-message helper names every accepted segment.
  const std::string names = sim::trace_mask_names();
  for (std::size_t s = 0; s < sim::causal::kSegmentCount; ++s) {
    const char* name = sim::causal::to_string(static_cast<Segment>(s));
    EXPECT_NE(names.find(name), std::string::npos) << name;
  }
  EXPECT_NE(names.find("all"), std::string::npos);
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

TEST(TelemetryIntegrationTest, PdesWindowStatsOnlyOnPartitionedClusters) {
  // 64 nodes on a radix-16 fat-tree: eight leaves, so four partitions.
  auto run = [](std::size_t partitions, Telemetry& t) {
    coll::ExperimentParams p = instrumented_params(t, 3);
    p.nodes = 64;
    p.cluster.topology = host::Topology::kFatTree;
    p.cluster.fabric_radix = 16;
    p.cluster.pdes_partitions = partitions;
    p.cluster.pdes_workers = 1;
    (void)coll::run_barrier_experiment(p);
  };
  Telemetry serial, par;
  run(1, serial);
  run(4, par);
  for (const char* name : {"pdes.partitions", "pdes.windows", "pdes.events",
                           "pdes.channel_messages", "pdes.max_drain_batch"}) {
    EXPECT_EQ(serial.metrics().find_counter(name), nullptr) << name;
    ASSERT_NE(par.metrics().find_counter(name), nullptr) << name;
  }
  EXPECT_EQ(*par.metrics().find_counter("pdes.partitions"), 4u);
  EXPECT_GT(*par.metrics().find_counter("pdes.windows"), 0u);
  EXPECT_GT(*par.metrics().find_counter("pdes.events"), 0u);
  EXPECT_GT(*par.metrics().find_counter("pdes.channel_messages"), 0u);
  EXPECT_GT(*par.metrics().find_counter("pdes.max_drain_batch"), 0u);
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

/// X events per track name in a file from write_chrome_trace, which puts
/// one event on each line.
std::map<std::string, std::size_t> x_events_per_track(const std::string& json) {
  std::map<int, std::string> names;
  std::map<int, std::size_t> per_tid;
  std::istringstream in(json);
  for (std::string line; std::getline(in, line);) {
    const std::size_t t = line.find("\"tid\": ");
    if (t == std::string::npos) continue;
    const int tid = std::stoi(line.substr(t + 7));
    if (line.find("\"thread_name\"") != std::string::npos) {
      const std::size_t n = line.find("{\"name\": \"") + 10;
      names[tid] = line.substr(n, line.find('"', n) - n);
    } else if (line.find("\"ph\": \"X\"") != std::string::npos) {
      ++per_tid[tid];
    }
  }
  std::map<std::string, std::size_t> out;
  for (const auto& [tid, n] : per_tid) out[names[tid]] = n;
  return out;
}

std::string trace_of(const Telemetry& t, std::uint32_t mask = sim::kTraceAll) {
  return chrome_trace(*t.causal(), t.trace_links(), mask);
}

TEST(TelemetryIntegrationTest, TraceHasSpansPerEnginePerBarrierRound) {
  Telemetry t;
  t.enable_causal();
  const int reps = 3;
  (void)coll::run_barrier_experiment(instrumented_params(t, reps));
  const std::string json = trace_of(t);
  const std::map<std::string, std::size_t> per_track = x_events_per_track(json);

  // One track per NIC engine, each with at least one span per barrier round.
  for (int n = 0; n < 4; ++n) {
    for (const char* e : {"sdma", "send", "recv", "rdma"}) {
      const std::string name = "nic" + std::to_string(n) + "/" + e;
      ASSERT_EQ(per_track.count(name), 1u) << name;
      EXPECT_GE(per_track.at(name), static_cast<std::size_t>(reps)) << name;
    }
  }
  // Links got their own tracks too (4 terminals on one switch = 8 links).
  std::size_t link_tracks = 0;
  for (const auto& [name, n] : per_track) {
    if (name.rfind("link/", 0) == 0) ++link_tracks;
  }
  EXPECT_EQ(link_tracks, 8u);
  EXPECT_TRUE(valid_json(json));
}

TEST(TelemetryIntegrationTest, TraceMaskFiltersEndToEnd) {
  // One traced experiment written unfiltered and once per segment: the mask
  // thins the file at write time, the single-segment streams partition the
  // full "X" stream, and the full stream carries the flow events that
  // follow each packet across tracks.
  Telemetry t;
  t.enable_causal();
  coll::ExperimentParams p = instrumented_params(t, 3);
  (void)coll::run_barrier_experiment(p);
  const std::string full = trace_of(t);
  const std::size_t full_x = count(full, "\"ph\": \"X\"");

  const std::string recv = trace_of(t, sim::trace_bit(Segment::kRecv));
  EXPECT_GT(count(recv, "\"ph\": \"X\""), 0u);
  EXPECT_LT(count(recv, "\"ph\": \"X\""), full_x);
  EXPECT_TRUE(valid_json(recv));

  std::size_t partitioned = 0;
  for (std::size_t s = 0; s < sim::causal::kSegmentCount; ++s) {
    partitioned += count(trace_of(t, sim::trace_bit(static_cast<Segment>(s))), "\"ph\": \"X\"");
  }
  EXPECT_EQ(partitioned, full_x);

  EXPECT_NE(full.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(full.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(full.find("\"args\": {\"id\": "), std::string::npos);
}

/// Spans and summed span time per unit of a tracer's arena.
struct UnitLoad {
  std::uint64_t spans = 0;
  std::int64_t busy_ps = 0;
};
using UnitKey = std::tuple<Unit::Kind, std::uint32_t, std::uint8_t>;

std::map<UnitKey, UnitLoad> load_by_unit(const CausalTracer& c) {
  std::map<UnitKey, UnitLoad> out;
  for (SpanId id = 1; id <= c.span_count(); ++id) {
    const sim::causal::Span* s = c.span(id);
    UnitLoad& l = out[UnitKey{s->unit.kind, s->unit.id, s->unit.sub}];
    ++l.spans;
    l.busy_ps += (s->end - s->start).ps();
  }
  return out;
}

/// Every firmware job of every engine and every PCI transfer shows up as a
/// span on its unit's track: at least one span per job, and the spans add
/// up to the engine's cycles (to within the 1 ps a cycle count can lose to
/// rounding per job) and to the bus's busy time exactly.
void expect_every_job_covered(const Telemetry& t, std::size_t nodes, const std::string& what) {
  const std::map<UnitKey, UnitLoad> load = load_by_unit(*t.causal());
  const auto at = [&load](UnitKey k) {
    const auto it = load.find(k);
    return it == load.end() ? UnitLoad{} : it->second;
  };
  std::uint64_t jobs_seen = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    const auto node = static_cast<std::uint32_t>(n);
    const std::string nic = "nic" + std::to_string(n) + ".engine.";
    for (std::uint8_t e = 0; e < nic::kMcpEngineCount; ++e) {
      const std::string pfx = nic + nic::to_string(static_cast<nic::McpEngine>(e)) + ".";
      const std::uint64_t jobs = *t.metrics().find_counter(pfx + "jobs");
      const auto cycles = static_cast<std::int64_t>(*t.metrics().find_counter(pfx + "cycles"));
      const UnitLoad l = at(UnitKey{Unit::Kind::kEngine, node, e});
      const std::int64_t busy = sim::cycles_at_mhz(cycles, 33.0).ps();
      EXPECT_GE(l.spans, jobs) << what << " " << pfx;
      EXPECT_LE(l.busy_ps, busy) << what << " " << pfx;
      EXPECT_GE(l.busy_ps + static_cast<std::int64_t>(2 * jobs), busy) << what << " " << pfx;
      jobs_seen += jobs;
    }
    const std::string pci = "node" + std::to_string(n) + ".pci.";
    const UnitLoad l = at(UnitKey{Unit::Kind::kPci, node, 0});
    EXPECT_EQ(l.spans, *t.metrics().find_counter(pci + "jobs")) << what << " " << pci;
    EXPECT_EQ(static_cast<std::uint64_t>(l.busy_ps), *t.metrics().find_counter(pci + "busy_ps"))
        << what << " " << pci;
  }
  EXPECT_GT(jobs_seen, 0u) << what;
}

TEST(TelemetryIntegrationTest, TraceCoversEveryEngineJobAndPciTransfer) {
  // Host-based barrier: the SDMA data path, acks, and RDMA delivery.
  {
    Telemetry t;
    t.enable_causal();
    coll::ExperimentParams p = instrumented_params(t, 3);
    p.spec.location = coll::Location::kHost;
    (void)coll::run_barrier_experiment(p);
    expect_every_job_covered(t, p.nodes, "host barrier");
  }
  // NIC allreduce: reduce initiation, combining, and the completion DMA.
  {
    Telemetry t;
    t.enable_causal();
    host::ClusterParams cp;
    cp.nodes = 4;
    cp.telemetry = &t;
    host::Cluster cluster(cp);
    std::vector<gm::Endpoint> group;
    for (std::size_t i = 0; i < cp.nodes; ++i) {
      group.push_back(gm::Endpoint{static_cast<net::NodeId>(i), 2});
    }
    std::vector<std::unique_ptr<gm::Port>> ports;
    std::vector<std::unique_ptr<coll::ReduceMember>> members;
    for (std::size_t i = 0; i < cp.nodes; ++i) {
      ports.push_back(cluster.open_port(static_cast<net::NodeId>(i), 2));
      members.push_back(std::make_unique<coll::ReduceMember>(
          *ports.back(), group, coll::Location::kNic, nic::ReduceOp::kSum, 2));
      cluster.sim().spawn([](coll::ReduceMember& m, std::int64_t v) -> sim::Task {
        (void)co_await m.allreduce(v);
      }(*members.back(), static_cast<std::int64_t>(i)));
    }
    cluster.sim().run();
    cluster.snapshot_metrics();
    ASSERT_EQ(cluster.nic(0).stats().reduces_completed, 1u);
    expect_every_job_covered(t, cp.nodes, "reduce");
  }
  // One-sided put: RMA initiation and its PCI read, the target's apply and
  // PCI write, and the reply.
  {
    Telemetry t;
    t.enable_causal();
    host::ClusterParams cp;
    cp.nodes = 2;
    cp.telemetry = &t;
    host::Cluster cluster(cp);
    std::vector<std::unique_ptr<gm::Port>> ports;
    std::vector<std::unique_ptr<rma::Domain>> domains;
    for (std::size_t i = 0; i < cp.nodes; ++i) {
      ports.push_back(cluster.open_port(static_cast<net::NodeId>(i), 2));
      domains.push_back(std::make_unique<rma::Domain>(*ports.back()));
    }
    rma::Segment& target = domains[1]->register_segment(4);
    cluster.sim().spawn([](rma::Domain& d, gm::Endpoint dst, std::uint64_t seg) -> sim::Task {
      (void)co_await d.rput(dst, seg, 1, 42);
    }(*domains[0], gm::Endpoint{1, 2}, target.id()));
    cluster.sim().run();
    cluster.snapshot_metrics();
    ASSERT_EQ(target.load(1), 42);
    expect_every_job_covered(t, cp.nodes, "rma put");
  }
}

TEST(TelemetryIntegrationTest, DetachedTelemetryKeepsTimelineIdentical) {
  // The zero-cost discipline, observed end to end: attaching the bundle
  // with causal tracing (the source of every trace and breakdown) must not
  // change any simulated timestamp.
  coll::ExperimentParams plain;
  plain.nodes = 4;
  plain.reps = 3;
  plain.spec.location = coll::Location::kNic;
  const double bare_us = coll::run_barrier_experiment(plain).mean_us;

  Telemetry t;
  t.enable_causal();
  coll::ExperimentParams wired = plain;
  wired.cluster.telemetry = &t;
  const double wired_us = coll::run_barrier_experiment(wired).mean_us;

  EXPECT_DOUBLE_EQ(bare_us, wired_us);
}

}  // namespace
}  // namespace nicbar
