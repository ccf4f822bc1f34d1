// Causal span tracer: id invariant, critical-path extraction, telescoping
// attribution, profiles — plus the end-to-end properties of a traced NIC
// barrier experiment (acyclic DAG, full attribution, and a bit-identical
// timeline with tracing on or off).
#include "sim/causal.hpp"

#include <gtest/gtest.h>

#include <cstddef>

#include "coll/runner.hpp"
#include "sim/telemetry.hpp"
#include "sim/time.hpp"

namespace nicbar {
namespace {

using sim::causal::CausalTracer;
using sim::causal::CriticalPath;
using sim::causal::kSegmentCount;
using sim::causal::PathProfile;
using sim::causal::Segment;
using sim::causal::SpanId;
using sim::causal::Unit;
using sim::Duration;
using sim::SimTime;

SimTime at_us(double us) { return SimTime{0} + sim::microseconds(us); }

// The unit is display-only; nothing these tests check reads it.
constexpr Unit kUnit = Unit::host(0);

TEST(CausalTracerTest, RecordAssignsMonotonicIdsAndKeepsParents) {
  CausalTracer c;
  const SpanId a = c.record(Segment::kHost, 0, kUnit, "a", at_us(0), at_us(1));
  const SpanId b = c.record(Segment::kSend, 0, kUnit, "b", at_us(1), at_us(2), a);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  ASSERT_NE(c.span(b), nullptr);
  ASSERT_EQ(c.span(b)->parents.size(), 1u);
  EXPECT_EQ(c.span(b)->parents.front(), a);
  EXPECT_EQ(c.span(0), nullptr);
  EXPECT_EQ(c.span(99), nullptr);
  EXPECT_TRUE(c.verify_acyclic());
}

TEST(CausalTracerTest, AddParentRejectsEdgesThatWouldBreakTheIdInvariant) {
  CausalTracer c;
  const SpanId a = c.record(Segment::kHost, 0, kUnit, "a", at_us(0), at_us(1));
  const SpanId b = c.record(Segment::kHost, 0, kUnit, "b", at_us(1), at_us(2));
  c.add_parent(a, b);  // parent id > span id: a back edge, silently dropped
  c.add_parent(a, a);  // self edge, silently dropped
  c.add_parent(0, a);  // no-op on the null span
  ASSERT_NE(c.span(a), nullptr);
  EXPECT_TRUE(c.span(a)->parents.empty());
  EXPECT_TRUE(c.verify_acyclic());
  c.add_parent(b, a);  // legal join
  ASSERT_EQ(c.span(b)->parents.size(), 1u);
  EXPECT_TRUE(c.verify_acyclic());
}

TEST(CausalTracerTest, CriticalPathFollowsTheLatestParentAndTelescopes) {
  // Diamond: the origin forks into a fast and a slow branch; the join waits
  // on the slow one and then idles 1us before starting (queue time).
  CausalTracer c;
  const SpanId origin = c.record(Segment::kHost, 0, kUnit, "origin", at_us(0), at_us(1));
  const SpanId fast = c.record(Segment::kSend, 0, kUnit, "fast", at_us(1), at_us(2), origin);
  const SpanId slow = c.record(Segment::kWire, 1, kUnit, "slow", at_us(1), at_us(5), origin);
  const SpanId join = c.record(Segment::kRecv, 1, kUnit, "join", at_us(6), at_us(7), fast, slow);

  const CriticalPath path = c.critical_path(join);
  ASSERT_EQ(path.steps.size(), 3u);  // origin -> slow -> join (fast is off-path)
  EXPECT_EQ(path.steps[0].span, origin);
  EXPECT_EQ(path.steps[1].span, slow);
  EXPECT_EQ(path.steps[2].span, join);
  EXPECT_EQ(path.total, sim::microseconds(7.0));
  EXPECT_EQ(path.self[static_cast<std::size_t>(Segment::kHost)], sim::microseconds(1.0));
  EXPECT_EQ(path.self[static_cast<std::size_t>(Segment::kWire)], sim::microseconds(4.0));
  EXPECT_EQ(path.self[static_cast<std::size_t>(Segment::kRecv)], sim::microseconds(1.0));
  EXPECT_EQ(path.queue[static_cast<std::size_t>(Segment::kRecv)], sim::microseconds(1.0));
  EXPECT_EQ(path.self[static_cast<std::size_t>(Segment::kSend)], Duration{0});
  // The invariant everything downstream relies on: attribution is complete.
  EXPECT_EQ(path.attributed(), path.total);
}

TEST(CausalTracerTest, ProfileAggregatesCompletedBarriers) {
  CausalTracer c;
  // Barrier 1: 2us of host work. Barrier 2: 6us (1us host + 5us wire).
  const SpanId s1 = c.record(Segment::kHost, 0, kUnit, "b1", at_us(0), at_us(2));
  c.complete_barrier(0, 2, 0, s1);
  const SpanId o2 = c.record(Segment::kHost, 0, kUnit, "b2", at_us(10), at_us(11));
  const SpanId w2 = c.record(Segment::kWire, 0, kUnit, "b2w", at_us(11), at_us(16), o2);
  c.complete_barrier(0, 2, 1, w2);
  ASSERT_EQ(c.completed().size(), 2u);

  const PathProfile all = c.profile();
  EXPECT_EQ(all.barriers, 2u);
  EXPECT_EQ(all.total, sim::microseconds(8.0));
  EXPECT_EQ(all.attributed(), all.total);
  EXPECT_EQ(all.self[static_cast<std::size_t>(Segment::kHost)], sim::microseconds(3.0));
  EXPECT_EQ(all.self[static_cast<std::size_t>(Segment::kWire)], sim::microseconds(5.0));
  // (node, segment) hot map: both barriers ran on node 0.
  const auto host_key = std::make_pair(std::uint32_t{0},
                                       static_cast<std::uint8_t>(Segment::kHost));
  ASSERT_TRUE(all.by_node_segment.count(host_key) == 1);
  EXPECT_EQ(all.by_node_segment.at(host_key), sim::microseconds(3.0));

  // Tail filter: the threshold is the floor-ranked percentile of the barrier
  // totals, so with two samples p99 still admits both; p100 keeps only the
  // slowest barrier.
  const PathProfile p99 = c.profile(99.0);
  EXPECT_EQ(p99.barriers, 2u);
  const PathProfile tail = c.profile(100.0);
  EXPECT_EQ(tail.barriers, 1u);
  EXPECT_EQ(tail.total, sim::microseconds(6.0));
}

TEST(CausalTracerTest, ClearResetsEverything) {
  CausalTracer c;
  const SpanId s = c.record(Segment::kHost, 0, kUnit, "x", at_us(0), at_us(1));
  c.complete_barrier(0, 2, 0, s);
  c.clear();
  EXPECT_EQ(c.span_count(), 0u);
  EXPECT_TRUE(c.completed().empty());
}

// --- End-to-end over a real experiment -----------------------------------------

TEST(CausalIntegrationTest, TracedBarrierDagIsAcyclicAndFullyAttributed) {
  coll::ExperimentParams p;
  p.nodes = 16;
  p.reps = 5;
  p.spec.location = coll::Location::kNic;
  sim::telemetry::Telemetry t;
  t.enable_causal();
  p.cluster.telemetry = &t;
  (void)coll::run_barrier_experiment(p);

  const CausalTracer& c = *t.causal();
  EXPECT_TRUE(c.verify_acyclic());
  // Every member completed every rep, and each completion's critical path
  // attributes the whole latency with nothing left over.
  ASSERT_EQ(c.completed().size(), 16u * 5u);
  for (const sim::causal::CompletedBarrier& cb : c.completed()) {
    const CriticalPath path = c.critical_path(cb.sink);
    EXPECT_EQ(path.total, cb.total);
    EXPECT_EQ(path.attributed(), path.total) << "barrier at node " << cb.node;
    EXPECT_FALSE(path.steps.empty());
  }
}

TEST(CausalIntegrationTest, TracingKeepsTheTimelineBitIdentical) {
  // Recording spans must never perturb simulated time: the traced run's
  // result is bit-identical to the bare run (same discipline as the rest of
  // the telemetry bundle, extended to the causal tracer).
  coll::ExperimentParams p;
  p.nodes = 8;
  p.reps = 4;
  p.spec.location = coll::Location::kNic;
  const coll::ExperimentResult bare = coll::run_barrier_experiment(p);

  sim::telemetry::Telemetry t;
  t.enable_causal();
  coll::ExperimentParams traced = p;
  traced.cluster.telemetry = &t;
  const coll::ExperimentResult wired = coll::run_barrier_experiment(traced);

  EXPECT_EQ(bare.total_us, wired.total_us);
  EXPECT_DOUBLE_EQ(bare.mean_us, wired.mean_us);
  EXPECT_EQ(bare.barrier_packets_sent, wired.barrier_packets_sent);
  EXPECT_GT(t.causal()->span_count(), 0u);
}

TEST(CausalIntegrationTest, GatherBroadcastAlsoCompletesItsDag) {
  coll::ExperimentParams p;
  p.nodes = 9;  // non-trivial tree with a fold-free shape
  p.reps = 3;
  p.spec.location = coll::Location::kNic;
  p.spec.algorithm = nic::BarrierAlgorithm::kGatherBroadcast;
  p.spec.gb_dimension = 3;
  sim::telemetry::Telemetry t;
  t.enable_causal();
  p.cluster.telemetry = &t;
  (void)coll::run_barrier_experiment(p);

  const CausalTracer& c = *t.causal();
  EXPECT_TRUE(c.verify_acyclic());
  ASSERT_EQ(c.completed().size(), 9u * 3u);
  for (const sim::causal::CompletedBarrier& cb : c.completed()) {
    const CriticalPath path = c.critical_path(cb.sink);
    EXPECT_EQ(path.attributed(), path.total);
  }
}

}  // namespace
}  // namespace nicbar
